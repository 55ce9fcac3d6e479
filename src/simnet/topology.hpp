// Node/system topology: endpoints (sockets, GPUs, NICs, switches) connected
// by links, with min-hop routing. Immutable after finalize(); the Fabric owns
// all mutable contention state.
//
// Routing is structural. The graph built with add_endpoint/add_link is one
// node template, with a min-hop route table of template-size squared. A
// multi-node machine is `nodes` copies of it whose NICs share one switch;
// routes between nodes are composed on demand from template routes, so
// memory and build time do not grow with the square of the endpoint count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simnet/link.hpp"
#include "util/status.hpp"

namespace mrl::simnet {

/// What an endpoint is. Ranks/PEs are hosted only on kSocket/kGpu endpoints.
enum class EndpointKind { kSocket, kGpu, kNic, kSwitch };

std::string to_string(EndpointKind k);

struct Endpoint {
  std::string name;
  EndpointKind kind = EndpointKind::kSocket;
};

/// A directed link reference: undirected link `link` traversed in direction
/// `dir` (0 = a->b, 1 = b->a). Directed id = link*2 + dir.
struct DirectedLink {
  int link = -1;
  int dir = 0;
  [[nodiscard]] int id() const { return link * 2 + dir; }
};

/// The directed hops of one route, held inline: a small value that
/// Topology::route() builds on demand.
class Route {
 public:
  /// Longest route any topology may have; finalize() checks it.
  static constexpr int kMaxHops = 8;

  [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(n_); }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] const DirectedLink* begin() const { return hops_.data(); }
  [[nodiscard]] const DirectedLink* end() const { return hops_.data() + n_; }
  [[nodiscard]] const DirectedLink& operator[](std::size_t i) const {
    return hops_[i];
  }
  /// Appends a hop; the caller keeps size() <= kMaxHops.
  void push_back(DirectedLink dl) { hops_[static_cast<std::size_t>(n_++)] = dl; }

 private:
  std::array<DirectedLink, kMaxHops> hops_;
  int n_ = 0;
};

/// Immutable graph of endpoints and links with min-hop routing.
class Topology {
 public:
  /// Adds an endpoint; returns its id.
  int add_endpoint(std::string name, EndpointKind kind);

  /// Adds an undirected link between endpoints a and b; returns link id.
  int add_link(int a, int b, LinkSpec spec);

  /// Computes min-hop routes over the graph built so far. Routes come from a
  /// breadth-first search that visits each endpoint's links in the order they
  /// were added and keeps the first parent found, so among equal-hop routes
  /// the one through the earliest-added link wins. Must be called once
  /// before use.
  ///
  /// With `nodes` > 1 the graph built so far is a node template and the
  /// topology becomes `nodes` copies of it: copy i's endpoint j has id
  /// i*k + j and name "n<i>.<name>", its link l has id i*m + l (k endpoints,
  /// m links per copy). One "switch" endpoint comes last (id nodes*k), and
  /// link nodes*m + i is an `uplink` from copy i's endpoint `nic` to it.
  void finalize(int nodes = 1, int nic = -1, LinkSpec uplink = {});

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] int num_endpoints() const {
    return nodes_ * template_endpoints() + (nodes_ > 1 ? 1 : 0);
  }
  [[nodiscard]] int num_links() const {
    return nodes_ * template_links() + (nodes_ > 1 ? nodes_ : 0);
  }

  [[nodiscard]] Endpoint endpoint(int id) const;
  [[nodiscard]] const LinkSpec& link(int id) const;
  [[nodiscard]] int link_endpoint(int link_id, int side) const;  ///< side 0/1

  /// Directed links along the min-hop route src -> dst. Empty when src==dst.
  [[nodiscard]] Route route(int src, int dst) const;

  /// Sum of hardware latencies along the route, added in hop order (0 for
  /// src==dst).
  [[nodiscard]] double route_latency_us(int src, int dst) const;

  /// Min over the route of single-lane bandwidths; infinity for src==dst
  /// (local transfers are costed by the Platform instead).
  [[nodiscard]] double route_channel_gbs(int src, int dst) const;

  /// Endpoint ids of a given kind, in id order.
  [[nodiscard]] std::vector<int> endpoints_of_kind(EndpointKind k) const;

  /// One-line-per-link ASCII description (used by the Table I bench).
  [[nodiscard]] std::string describe() const;

  /// Host bytes this topology owns (object plus heap).
  [[nodiscard]] std::size_t bytes() const;

 private:
  [[nodiscard]] int template_endpoints() const {
    return static_cast<int>(endpoints_.size());
  }
  [[nodiscard]] int template_links() const {
    return static_cast<int>(links_.size());
  }
  /// Where an endpoint sits: its node copy (nodes_ for the switch) and its
  /// id inside the template.
  struct Place {
    int node;
    int local;
  };
  [[nodiscard]] Place place(int ep) const {
    MRL_CHECK(finalized_);
    MRL_CHECK(ep >= 0 && ep < num_endpoints());
    if (nodes_ == 1) return Place{0, ep};
    const int node = ep / template_endpoints();
    return Place{node, ep - node * template_endpoints()};
  }

  /// Calls visit(DirectedLink, const LinkSpec&) for each hop of the route
  /// src -> dst, in order: a template route inside one node, or src -> NIC,
  /// NIC -> switch, switch -> NIC, NIC -> dst between nodes.
  template <typename Visit>
  void for_each_hop(Place src, Place dst, Visit&& visit) const;

  /// Min-hop route between two template endpoints, with its latency (summed
  /// in hop order) and channel bandwidth.
  struct TemplateRoute {
    Route hops;
    double latency_us = 0.0;
    double channel_gbs = 0.0;
  };
  /// The template route src -> dst when both lie in one node copy.
  [[nodiscard]] const TemplateRoute* same_node(Place src, Place dst) const {
    if (src.node != dst.node || src.node == nodes_) return nullptr;
    return &template_routes_[static_cast<std::size_t>(src.local) *
                                 template_endpoints() +
                             dst.local];
  }

  // One node template: endpoints, links and their ends in local ids.
  std::vector<Endpoint> endpoints_;
  std::vector<LinkSpec> links_;
  std::vector<std::pair<int, int>> link_ends_;
  // template_routes_[a * k + b], over template endpoints a and b.
  std::vector<TemplateRoute> template_routes_;
  int nodes_ = 1;
  int nic_ = -1;
  LinkSpec uplink_;
  bool finalized_ = false;
};

}  // namespace mrl::simnet
