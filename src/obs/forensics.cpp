#include "obs/forensics.hpp"

#include <algorithm>
#include <utility>

namespace lcp::obs {

namespace {

const char* op_kind_name(MutationBatch::Kind kind) {
  switch (kind) {
    case MutationBatch::Kind::kNodeLabel:
      return "node_label";
    case MutationBatch::Kind::kEdgeLabel:
      return "edge_label";
    case MutationBatch::Kind::kEdgeWeight:
      return "edge_weight";
    case MutationBatch::Kind::kProofLabel:
      return "proof_label";
    case MutationBatch::Kind::kAddEdge:
      return "add_edge";
    case MutationBatch::Kind::kRemoveEdge:
      return "remove_edge";
    case MutationBatch::Kind::kAddNode:
      return "add_node";
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
        break;
    }
  }
  return out;
}

void op_to_json(const MutationBatch::Op& op, std::string* out) {
  *out += "{\"kind\":\"";
  *out += op_kind_name(op.kind);
  *out += "\"";
  switch (op.kind) {
    case MutationBatch::Kind::kNodeLabel:
      *out += ",\"u\":" + std::to_string(op.u) +
              ",\"label\":" + std::to_string(op.label);
      break;
    case MutationBatch::Kind::kEdgeLabel:
      *out += ",\"u\":" + std::to_string(op.u) +
              ",\"v\":" + std::to_string(op.v) +
              ",\"label\":" + std::to_string(op.label);
      break;
    case MutationBatch::Kind::kEdgeWeight:
      *out += ",\"u\":" + std::to_string(op.u) +
              ",\"v\":" + std::to_string(op.v) +
              ",\"weight\":" + std::to_string(op.weight);
      break;
    case MutationBatch::Kind::kProofLabel:
      *out += ",\"u\":" + std::to_string(op.u) + ",\"bits\":\"" +
              op.bits.to_string() + "\"";
      break;
    case MutationBatch::Kind::kAddEdge:
      *out += ",\"u\":" + std::to_string(op.u) +
              ",\"v\":" + std::to_string(op.v) +
              ",\"label\":" + std::to_string(op.label) +
              ",\"weight\":" + std::to_string(op.weight);
      break;
    case MutationBatch::Kind::kRemoveEdge:
      *out += ",\"u\":" + std::to_string(op.u) +
              ",\"v\":" + std::to_string(op.v);
      break;
    case MutationBatch::Kind::kAddNode:
      *out += ",\"id\":" + std::to_string(op.id) +
              ",\"label\":" + std::to_string(op.label);
      break;
  }
  *out += "}";
}

void batch_to_json(const MutationBatch& batch, std::string* out) {
  *out += "[";
  bool first = true;
  for (const MutationBatch::Op& op : batch.ops()) {
    if (!first) *out += ",";
    first = false;
    op_to_json(op, out);
  }
  *out += "]";
}

/// Re-records one op into another batch via the public builders
/// (MutationBatch has no generic push).  Covers all seven kinds, unlike
/// the relay-only helper in composed_maintainer.cpp.
void append_op(MutationBatch* batch, const MutationBatch::Op& op) {
  switch (op.kind) {
    case MutationBatch::Kind::kNodeLabel:
      batch->set_node_label(op.u, op.label);
      break;
    case MutationBatch::Kind::kEdgeLabel:
      batch->set_edge_label(op.u, op.v, op.label);
      break;
    case MutationBatch::Kind::kEdgeWeight:
      batch->set_edge_weight(op.u, op.v, op.weight);
      break;
    case MutationBatch::Kind::kProofLabel:
      batch->set_proof_label(op.u, op.bits);
      break;
    case MutationBatch::Kind::kAddEdge:
      batch->add_edge(op.u, op.v, op.label, op.weight);
      break;
    case MutationBatch::Kind::kRemoveEdge:
      batch->remove_edge(op.u, op.v);
      break;
    case MutationBatch::Kind::kAddNode:
      batch->add_node(op.id, op.label);
      break;
  }
}

void int_list_to_json(const std::vector<int>& values, std::string* out) {
  *out += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ",";
    *out += std::to_string(values[i]);
  }
  *out += "]";
}

// The witness view, fully self-contained: ball nodes in extraction order
// with host ids, labels and proof bits; edges as ball-index pairs.  A
// reader can rebuild the exact View and re-run the verifier on it.
void view_to_json(const View& view, std::string* out) {
  *out += "{\"center\":" + std::to_string(view.center) +
          ",\"center_id\":" + std::to_string(view.center_id()) +
          ",\"radius\":" + std::to_string(view.radius) + ",\"nodes\":[";
  for (int v = 0; v < view.ball.n(); ++v) {
    if (v > 0) *out += ",";
    *out += "{\"id\":" + std::to_string(view.ball.id(v)) +
            ",\"label\":" + std::to_string(view.ball.label(v)) +
            ",\"dist\":" + std::to_string(view.dist_of(v)) + ",\"proof\":\"" +
            view.proof_of(v).to_string() + "\"}";
  }
  *out += "],\"edges\":[";
  for (int e = 0; e < view.ball.m(); ++e) {
    if (e > 0) *out += ",";
    *out += "[" + std::to_string(view.ball.edge_u(e)) + "," +
            std::to_string(view.ball.edge_v(e)) + "," +
            std::to_string(view.ball.edge_label(e)) + "," +
            std::to_string(view.ball.edge_weight(e)) + "]";
  }
  *out += "]}";
}

/// True when plain-applying exactly `ops` to copies of the pre state
/// makes the verifier reject somewhere.  Un-appliable candidates (an op
/// whose prerequisite was dropped) count as not rejecting, so the shrink
/// keeps the prerequisite op instead.
bool sub_batch_rejects(const std::vector<MutationBatch::Op>& ops,
                       const Graph& pre_graph, const Proof& pre_proof,
                       const LocalVerifier& verifier) {
  MutationBatch candidate;
  for (const MutationBatch::Op& op : ops) append_op(&candidate, op);
  Graph g = pre_graph;
  Proof p = pre_proof;
  if (!apply_plain(candidate, &g, &p)) return false;
  return !sweep_sequential(g, p, verifier).all_accept;
}

}  // namespace

bool apply_plain(const MutationBatch& batch, Graph* g, Proof* p) {
  for (const MutationBatch::Op& op : batch.ops()) {
    const int n = g->n();
    switch (op.kind) {
      case MutationBatch::Kind::kNodeLabel:
        if (op.u < 0 || op.u >= n) return false;
        g->set_label(op.u, op.label);
        break;
      case MutationBatch::Kind::kEdgeLabel: {
        if (op.u < 0 || op.u >= n || op.v < 0 || op.v >= n) return false;
        const int e = g->edge_index(op.u, op.v);
        if (e < 0) return false;
        g->set_edge_label(e, op.label);
        break;
      }
      case MutationBatch::Kind::kEdgeWeight: {
        if (op.u < 0 || op.u >= n || op.v < 0 || op.v >= n) return false;
        const int e = g->edge_index(op.u, op.v);
        if (e < 0) return false;
        g->set_edge_weight(e, op.weight);
        break;
      }
      case MutationBatch::Kind::kProofLabel:
        if (op.u < 0 ||
            op.u >= static_cast<int>(p->labels.size())) {
          return false;
        }
        p->labels[static_cast<std::size_t>(op.u)] = op.bits;
        break;
      case MutationBatch::Kind::kAddEdge:
        if (op.u < 0 || op.u >= n || op.v < 0 || op.v >= n ||
            op.u == op.v || g->has_edge(op.u, op.v)) {
          return false;
        }
        g->add_edge(op.u, op.v, op.label, op.weight);
        break;
      case MutationBatch::Kind::kRemoveEdge:
        if (op.u < 0 || op.u >= n || op.v < 0 || op.v >= n ||
            !g->has_edge(op.u, op.v)) {
          return false;
        }
        g->remove_edge(op.u, op.v);
        break;
      case MutationBatch::Kind::kAddNode:
        if (g->index_of(op.id).has_value()) return false;
        g->add_node(op.id, op.label);
        p->labels.emplace_back();
        break;
    }
  }
  return true;
}

std::string RejectionReport::to_json() const {
  std::string out = "{";
  out += "\"batch_index\":" + std::to_string(batch_index);
  out += ",\"generation\":" + std::to_string(generation);
  out += ",\"scheme\":\"" + json_escape(scheme) + "\"";
  out += ",\"engine\":\"" + json_escape(engine) + "\"";
  out += ",\"radius\":" + std::to_string(radius);
  out += ",\"rejecting\":";
  int_list_to_json(rejecting, &out);
  out += ",\"newly_rejecting\":";
  int_list_to_json(newly_rejecting, &out);
  out += ",\"witnesses\":[";
  for (std::size_t i = 0; i < witnesses.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"center\":" + std::to_string(witnesses[i].center) +
           ",\"newly_rejecting\":" +
           (witnesses[i].newly_rejecting ? "true" : "false") + ",\"view\":";
    view_to_json(witnesses[i].view, &out);
    out += "}";
  }
  out += "],\"mutation_batch\":";
  batch_to_json(mutation_batch, &out);
  out += ",\"repair_batch\":";
  batch_to_json(repair_batch, &out);
  out += ",\"minimal_batch\":";
  batch_to_json(minimal_batch, &out);
  out += ",\"raw_batch_rejects\":";
  out += raw_batch_rejects ? "true" : "false";
  out += ",\"shrink_evals\":" + std::to_string(shrink_evals);
  out += ",\"repair_history\":[";
  for (std::size_t i = 0; i < repair_history.size(); ++i) {
    if (i > 0) out += ",";
    const RepairHistoryEntry& entry = repair_history[i];
    out += "{\"batch_index\":" + std::to_string(entry.batch_index) +
           ",\"maintainer\":\"" + json_escape(entry.maintainer) + "\"" +
           ",\"ops\":" + std::to_string(entry.ops) +
           ",\"ops_on_rejecting\":" +
           std::to_string(entry.ops_on_rejecting) + "}";
  }
  out += "],\"journal_window\":[";
  for (std::size_t i = 0; i < journal_window.size(); ++i) {
    if (i > 0) out += ",";
    out += journal_window[i].to_json();
  }
  out += "]}";
  return out;
}

RejectionReport capture_rejection(const Graph& pre_graph,
                                  const Proof& pre_proof,
                                  const Graph& post_graph,
                                  const Proof& post_proof,
                                  const LocalVerifier& verifier,
                                  const RunResult& result,
                                  const MutationBatch& applied,
                                  const MutationBatch& repair,
                                  const ForensicsOptions& options) {
  RejectionReport report;
  report.radius = verifier.radius();
  report.rejecting = result.rejecting;
  if (result.flips_known) report.newly_rejecting = result.newly_rejecting;
  report.mutation_batch = applied;
  report.repair_batch = repair;

  // Witnesses: the newly rejecting centres are the flip's frontier, so
  // they fill the quota first; long-standing rejects pad the remainder.
  std::vector<int> order = report.newly_rejecting;
  for (int c : report.rejecting) {
    if (!std::binary_search(report.newly_rejecting.begin(),
                            report.newly_rejecting.end(), c)) {
      order.push_back(c);
    }
  }
  for (int c : order) {
    if (report.witnesses.size() >= options.max_witnesses) break;
    if (c < 0 || c >= post_graph.n()) continue;
    RejectionWitness witness;
    witness.center = c;
    witness.newly_rejecting = std::binary_search(
        report.newly_rejecting.begin(), report.newly_rejecting.end(), c);
    witness.view = extract_view(post_graph, post_proof, c, report.radius);
    witness.view.own_proofs();  // the report outlives the post state
    report.witnesses.push_back(std::move(witness));
  }

  // Shrink.  The predicate plain-applies a candidate op subset to copies
  // of the pre-flip state and sweeps; its budget is max_shrink_evals
  // sweeps total.  First decide whose ops are on trial: the caller's
  // batch alone if it already rejects, otherwise batch + repair (the full
  // window; it reproduces the post state, which the engine rejected).
  std::uint64_t evals = 0;
  const auto rejects = [&](const std::vector<MutationBatch::Op>& ops) {
    ++evals;
    return sub_batch_rejects(ops, pre_graph, pre_proof, verifier);
  };
  std::vector<MutationBatch::Op> ops = applied.ops();
  report.raw_batch_rejects = !ops.empty() && rejects(ops);
  if (!report.raw_batch_rejects) {
    ops.insert(ops.end(), repair.ops().begin(), repair.ops().end());
  }
  bool shrinkable =
      report.raw_batch_rejects || (!ops.empty() && rejects(ops));
  if (shrinkable) {
    // Greedy drop-one-op passes to fixpoint: every op in the survivor is
    // necessary (dropping it stops the rejection) unless the eval budget
    // ran out first.  The survivor always still rejects.
    bool changed = true;
    while (changed && evals < options.max_shrink_evals) {
      changed = false;
      for (std::size_t i = 0; i < ops.size();) {
        if (ops.size() == 1) break;
        if (evals >= options.max_shrink_evals) break;
        std::vector<MutationBatch::Op> candidate;
        candidate.reserve(ops.size() - 1);
        for (std::size_t j = 0; j < ops.size(); ++j) {
          if (j != i) candidate.push_back(ops[j]);
        }
        if (rejects(candidate)) {
          ops = std::move(candidate);
          changed = true;
          // Same index now names the next op; don't advance.
        } else {
          ++i;
        }
      }
    }
    for (const MutationBatch::Op& op : ops) {
      append_op(&report.minimal_batch, op);
    }
  }
  report.shrink_evals = evals;
  return report;
}

}  // namespace lcp::obs
