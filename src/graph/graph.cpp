#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lcp {

int Graph::add_node(NodeId id, std::uint64_t label) {
  if (index_.contains(id)) {
    throw std::invalid_argument("Graph::add_node: duplicate node id " +
                                std::to_string(id));
  }
  const int v = n();
  ids_.push_back(id);
  labels_.push_back(label);
  adj_.emplace_back();
  index_.emplace(id, v);
  return v;
}

void Graph::check_new_edge(int u, int v) const {
  if (u < 0 || v < 0 || u >= n() || v >= n()) {
    throw std::invalid_argument("Graph::add_edge: endpoint out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loop");
  }
  if (has_edge(u, v)) {
    throw std::invalid_argument("Graph::add_edge: parallel edge");
  }
}

void Graph::insert_half(int at, int to, int edge) {
  auto& list = adj_[static_cast<std::size_t>(at)];
  auto it = std::lower_bound(
      list.begin(), list.end(), to,
      [this](const HalfEdge& h, int node) { return id(h.to) < id(node); });
  list.insert(it, HalfEdge{to, edge});
}

void Graph::drop_half(int at, int to) {
  auto& list = adj_[static_cast<std::size_t>(at)];
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (it->to == to) {
      list.erase(it);
      return;
    }
  }
}

int Graph::add_edge(int u, int v, std::uint64_t label, std::int64_t weight) {
  check_new_edge(u, v);
  const int e = m();
  edges_.push_back(EdgeRecord{u, v, label, weight});
  insert_half(u, v, e);
  insert_half(v, u, e);
  return e;
}

void Graph::remove_edge(int u, int v) {
  const int e = edge_index(u, v);
  if (e < 0) {
    throw std::invalid_argument("Graph::remove_edge: no such edge");
  }
  drop_half(u, v);
  drop_half(v, u);
  const int last = m() - 1;
  if (e != last) {
    edges_[static_cast<std::size_t>(e)] = edges_[static_cast<std::size_t>(last)];
    // Re-point the moved edge's two adjacency entries at the new slot.
    const EdgeRecord& moved = edges_[static_cast<std::size_t>(e)];
    for (int endpoint : {moved.u, moved.v}) {
      for (HalfEdge& h : adj_[static_cast<std::size_t>(endpoint)]) {
        if (h.edge == last) h.edge = e;
      }
    }
  }
  edges_.pop_back();
}

int Graph::edge_index(int u, int v) const {
  const auto& list = adj_[static_cast<std::size_t>(u)];
  for (const HalfEdge& h : list) {
    if (h.to == v) return h.edge;
  }
  return -1;
}

std::optional<int> Graph::index_of(NodeId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

int Graph::port_of(int v, int u) const {
  const auto& list = adj_[static_cast<std::size_t>(v)];
  for (std::size_t p = 0; p < list.size(); ++p) {
    if (list[p].to == u) return static_cast<int>(p);
  }
  return -1;
}

std::optional<int> Graph::find_label(std::uint64_t label) const {
  for (int v = 0; v < n(); ++v) {
    if (labels_[static_cast<std::size_t>(v)] == label) return v;
  }
  return std::nullopt;
}

NodeId Graph::max_id() const {
  NodeId best = 0;
  for (NodeId id : ids_) best = std::max(best, id);
  return best;
}

std::string Graph::to_string() const {
  std::ostringstream out;
  out << "Graph(n=" << n() << ", m=" << m() << ")\n";
  for (int v = 0; v < n(); ++v) {
    out << "  [" << v << "] id=" << id(v) << " label=" << label(v) << " ->";
    for (const HalfEdge& h : neighbors(v)) {
      out << ' ' << id(h.to);
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace lcp
