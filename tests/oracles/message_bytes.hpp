// Differential oracle for the MinBFT signing payloads and body digests: the
// std::ostringstream builders that src/consensus/minbft_messages.cpp used
// before it appended fields directly.  Each function reproduces the bytes
// (or the digest of the bytes) of the library member it names, computed
// from the message fields alone — no memo is read or written.
#pragma once

#include <cstdint>
#include <string>

#include "tolerance/consensus/minbft_messages.hpp"

namespace tolerance::oracles {

std::string request_payload(const consensus::Request& r);
crypto::Digest request_digest(const consensus::Request& r);
crypto::Digest prepare_batch_digest(const consensus::Prepare& p);
crypto::Digest prepare_body_digest(const consensus::Prepare& p);
crypto::Digest commit_body_digest(const consensus::Commit& c);
std::string reply_payload(const consensus::Reply& r);
crypto::Digest checkpoint_body_digest(const consensus::Checkpoint& c);
std::string req_view_change_payload(const consensus::ReqViewChange& m);
std::string overloaded_payload(const consensus::Overloaded& m);
std::string state_response_payload(const consensus::StateResponse& m);
crypto::Digest view_change_body_digest(const consensus::ViewChange& m);
crypto::Digest new_view_body_digest(const consensus::NewView& m);

/// The secret KeyRegistry::register_principal derives for (id, seed).
std::string principal_secret(crypto::PrincipalId id, std::uint64_t seed);
/// ReplicatedService::execute's result after the `ops_executed`-th operation.
std::string execute_result(std::size_t ops_executed);

}  // namespace tolerance::oracles
