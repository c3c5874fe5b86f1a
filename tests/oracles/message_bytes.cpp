// The stream-formatted MinBFT payload and digest builders, kept as the
// byte-level reference for the append-built ones in the library.
#include "message_bytes.hpp"

#include <sstream>

namespace tolerance::oracles {
namespace {

using consensus::Checkpoint;
using consensus::Prepare;
using consensus::PreparedProof;
using consensus::Request;

std::string hex(const crypto::Digest& d) { return crypto::to_hex(d); }

}  // namespace

std::string request_payload(const Request& r) {
  std::ostringstream os;
  os << "req|" << r.client << '|' << r.request_id << '|' << r.operation;
  return os.str();
}

crypto::Digest request_digest(const Request& r) {
  crypto::Sha256 h;
  h.update(request_payload(r));
  std::ostringstream os;
  os << "|sig|" << r.signature.signer << '|' << hex(r.signature.tag);
  h.update(os.str());
  return h.finalize();
}

crypto::Digest prepare_batch_digest(const Prepare& p) {
  crypto::Sha256 h;
  h.update("batch|");
  for (const Request& r : p.requests) {
    const crypto::Digest d = request_digest(r);
    h.update(d.data(), d.size());
  }
  return h.finalize();
}

crypto::Digest prepare_body_digest(const Prepare& p) {
  std::ostringstream os;
  os << "prepare|" << p.view << '|' << p.seq << '|' << p.requests.size()
     << '|' << hex(prepare_batch_digest(p));
  return crypto::Sha256::hash(os.str());
}

crypto::Digest commit_body_digest(const consensus::Commit& c) {
  std::ostringstream os;
  os << "commit|" << c.view << '|' << c.seq << '|' << c.replica << '|'
     << hex(c.batch_digest) << '|' << c.leader_ui.replica << ':'
     << c.leader_ui.counter;
  return crypto::Sha256::hash(os.str());
}

std::string reply_payload(const consensus::Reply& r) {
  std::ostringstream os;
  os << "reply|" << r.replica << '|' << r.client << '|' << r.request_id << '|'
     << r.result << '|' << (r.speculative ? "spec" : "final");
  return os.str();
}

crypto::Digest checkpoint_body_digest(const Checkpoint& c) {
  std::ostringstream os;
  os << "checkpoint|" << c.replica << '|' << c.last_executed << '|'
     << hex(c.state_digest);
  return crypto::Sha256::hash(os.str());
}

std::string req_view_change_payload(const consensus::ReqViewChange& m) {
  std::ostringstream os;
  os << "reqviewchange|" << m.replica << '|' << m.from_view << '|'
     << m.to_view;
  return os.str();
}

std::string overloaded_payload(const consensus::Overloaded& m) {
  std::ostringstream os;
  os << "overloaded|" << m.replica << '|' << m.client << '|' << m.request_id
     << '|' << m.retry_after_ms << '|' << static_cast<unsigned>(m.mode);
  return os.str();
}

std::string state_response_payload(const consensus::StateResponse& m) {
  std::ostringstream os;
  os << "stateresponse|" << m.replica << '|' << m.last_executed << '|'
     << m.prefix_ops << '|' << hex(m.state_digest) << '|' << m.anchor_seq
     << '|' << m.anchor_ops << '|' << hex(m.anchor_digest);
  return os.str();
}

crypto::Digest view_change_body_digest(const consensus::ViewChange& m) {
  std::ostringstream os;
  os << "viewchange|" << m.replica << '|' << m.to_view << '|' << m.stable_seq
     << '|' << m.checkpoint_cert.size() << '|' << m.prepared.size();
  for (const Checkpoint& c : m.checkpoint_cert) {
    os << '|' << c.replica << ':' << c.last_executed << ':'
       << hex(c.state_digest) << ':' << c.ui.replica << ':' << c.ui.epoch
       << ':' << c.ui.counter << ':' << hex(c.ui.certificate);
  }
  for (const PreparedProof& p : m.prepared) {
    os << '|' << p.prepare.view << ':' << p.prepare.seq << ':'
       << hex(prepare_batch_digest(p.prepare)) << ':' << p.prepare.ui.replica
       << ':' << p.prepare.ui.epoch << ':' << p.prepare.ui.counter << ':'
       << hex(p.prepare.ui.certificate);
  }
  return crypto::Sha256::hash(os.str());
}

crypto::Digest new_view_body_digest(const consensus::NewView& m) {
  std::ostringstream os;
  os << "newview|" << m.leader << '|' << m.view << '|' << m.proofs.size()
     << '|' << m.reproposed.size();
  for (const Prepare& p : m.reproposed) {
    os << '|' << p.seq << ':' << hex(prepare_batch_digest(p));
  }
  return crypto::Sha256::hash(os.str());
}

std::string principal_secret(crypto::PrincipalId id, std::uint64_t seed) {
  std::ostringstream material;
  material << "tolerance-key|" << id << '|' << seed;
  const crypto::Digest d = crypto::Sha256::hash(material.str());
  return std::string(reinterpret_cast<const char*>(d.data()), d.size());
}

std::string execute_result(std::size_t ops_executed) {
  std::ostringstream os;
  os << "ok:" << ops_executed;
  return os.str();
}

}  // namespace tolerance::oracles
