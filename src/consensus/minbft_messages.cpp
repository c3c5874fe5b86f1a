#include "tolerance/consensus/minbft_messages.hpp"

#include "tolerance/crypto/fields.hpp"
#include "tolerance/util/sharded_counter.hpp"

namespace tolerance::consensus {
namespace {

util::ShardedCounter g_memo_computed;
util::ShardedCounter g_memo_saved;

}  // namespace

DigestMemoStats digest_memo_stats() {
  return {g_memo_computed.value(), g_memo_saved.value()};
}

void reset_digest_memo_stats() {
  g_memo_computed.reset();
  g_memo_saved.reset();
}

namespace detail {

void DigestMemo::note_computed() { g_memo_computed.add(); }

void DigestMemo::note_saved() { g_memo_saved.add(); }

}  // namespace detail

std::string Request::payload() const {
  return crypto::fields("req|", client, '|', request_id, '|', operation);
}

crypto::Digest Request::digest() const {
  // Binds the signature too, not just the signed payload: this digest keys
  // the verified-request cache and feeds the batch digest, so two requests
  // with the same payload but different signature bytes (e.g. an in-flight
  // corruption of a view-change proof) must never alias — aliasing would let
  // a cached verdict for the genuine request vouch for the corrupted copy,
  // and replicas with different cache contents would then disagree.
  return memo_.get([this] {
    std::string body = payload();
    crypto::append_fields(body, "|sig|", signature.signer, '|',
                          signature.tag);
    return crypto::Sha256::hash(body);
  });
}

crypto::Digest Prepare::batch_digest() const {
  return batch_memo_.get([this] {
    crypto::Sha256 h;
    h.update("batch|");
    for (const Request& r : requests) {
      const crypto::Digest d = r.digest();
      h.update(d.data(), d.size());
    }
    return h.finalize();
  });
}

crypto::Digest Prepare::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash(crypto::fields(
        "prepare|", view, '|', seq, '|', requests.size(), '|',
        batch_digest()));
  });
}

crypto::Digest Commit::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash(crypto::fields(
        "commit|", view, '|', seq, '|', replica, '|', batch_digest, '|',
        leader_ui.replica, ':', leader_ui.counter));
  });
}

std::string Reply::payload() const {
  return crypto::fields("reply|", replica, '|', client, '|', request_id, '|',
                        result, '|', speculative ? "spec" : "final");
}

crypto::Digest Checkpoint::body_digest() const {
  return body_memo_.get([this] {
    return crypto::Sha256::hash(crypto::fields(
        "checkpoint|", replica, '|', last_executed, '|', state_digest));
  });
}

std::string ReqViewChange::payload() const {
  return crypto::fields("reqviewchange|", replica, '|', from_view, '|',
                        to_view);
}

std::string Overloaded::payload() const {
  return crypto::fields("overloaded|", replica, '|', client, '|', request_id,
                        '|', retry_after_ms, '|', mode);
}

std::string StateResponse::payload() const {
  return crypto::fields("stateresponse|", replica, '|', last_executed, '|',
                        prefix_ops, '|', state_digest, '|', anchor_seq, '|',
                        anchor_ops, '|', anchor_digest);
}

crypto::Digest ViewChange::body_digest() const {
  return body_memo_.get([this] {
    std::string body =
        crypto::fields("viewchange|", replica, '|', to_view, '|', stable_seq,
                       '|', checkpoint_cert.size(), '|', prepared.size());
    for (const Checkpoint& c : checkpoint_cert) {
      crypto::append_fields(body, '|', c.replica, ':', c.last_executed, ':',
                            c.state_digest, ':', c.ui.replica, ':',
                            c.ui.epoch, ':', c.ui.counter, ':',
                            c.ui.certificate);
    }
    // Bind every field the view-change reproposal selection keys on — the
    // prepare's view, its leader UI, and (through the batch digest, which
    // folds in signature-binding request digests) the full request contents.
    // A relaying Byzantine leader who corrupts any of them in flight breaks
    // the proof sender's USIG certificate instead of steering honest
    // replicas' assemble_reproposals toward a null batch.
    for (const PreparedProof& p : prepared) {
      crypto::append_fields(body, '|', p.prepare.view, ':', p.prepare.seq,
                            ':', p.prepare.batch_digest(), ':',
                            p.prepare.ui.replica, ':', p.prepare.ui.epoch,
                            ':', p.prepare.ui.counter, ':',
                            p.prepare.ui.certificate);
    }
    return crypto::Sha256::hash(body);
  });
}

crypto::Digest NewView::body_digest() const {
  return body_memo_.get([this] {
    std::string body = crypto::fields("newview|", leader, '|', view, '|',
                                      proofs.size(), '|', reproposed.size());
    for (const Prepare& p : reproposed) {
      crypto::append_fields(body, '|', p.seq, ':', p.batch_digest());
    }
    return crypto::Sha256::hash(body);
  });
}

}  // namespace tolerance::consensus
