#include "simnet/topology.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>

#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::simnet {

std::string to_string(EndpointKind k) {
  switch (k) {
    case EndpointKind::kSocket: return "socket";
    case EndpointKind::kGpu: return "gpu";
    case EndpointKind::kNic: return "nic";
    case EndpointKind::kSwitch: return "switch";
  }
  return "unknown";
}

int Topology::add_endpoint(std::string name, EndpointKind kind) {
  MRL_CHECK(!finalized_);
  endpoints_.push_back(Endpoint{std::move(name), kind});
  return static_cast<int>(endpoints_.size()) - 1;
}

int Topology::add_link(int a, int b, LinkSpec spec) {
  MRL_CHECK(!finalized_);
  MRL_CHECK(a >= 0 && a < num_endpoints());
  MRL_CHECK(b >= 0 && b < num_endpoints());
  MRL_CHECK(a != b);
  MRL_CHECK(spec.bandwidth_gbs > 0 && spec.channels >= 1);
  const int id = static_cast<int>(links_.size());
  links_.push_back(std::move(spec));
  link_ends_.emplace_back(a, b);
  return id;
}

void Topology::finalize(int nodes, int nic, LinkSpec uplink) {
  MRL_CHECK(!finalized_);
  MRL_CHECK(nodes >= 1);
  const int k = template_endpoints();
  if (nodes > 1) {
    MRL_CHECK(nic >= 0 && nic < k);
    MRL_CHECK(uplink.bandwidth_gbs > 0 && uplink.channels >= 1);
  }
  struct Adj {
    int peer;
    DirectedLink dlink;
  };
  std::vector<std::vector<Adj>> adj(static_cast<std::size_t>(k));
  for (int l = 0; l < template_links(); ++l) {
    const auto [a, b] = link_ends_[l];
    adj[a].push_back(Adj{b, DirectedLink{l, 0}});
    adj[b].push_back(Adj{a, DirectedLink{l, 1}});
  }
  template_routes_.assign(static_cast<std::size_t>(k) * k, TemplateRoute{});

  // BFS from each template source; neighbors are visited in insertion order
  // and ties keep the first-found parent, so routes are deterministic. A
  // node's endpoints reach other nodes only through its NIC, so in the full
  // machine the same search finds the same in-node hops: a route between
  // nodes is src -> NIC, NIC -> switch -> NIC, then NIC -> dst.
  int max_to_nic = 0;
  int max_from_nic = 0;
  for (int src = 0; src < k; ++src) {
    std::vector<int> dist(k, -1);
    std::vector<DirectedLink> parent_link(k);
    std::vector<int> parent(k, -1);
    std::deque<int> q{src};
    dist[src] = 0;
    while (!q.empty()) {
      const int u = q.front();
      q.pop_front();
      for (const Adj& e : adj[u]) {
        if (dist[e.peer] != -1) continue;
        dist[e.peer] = dist[u] + 1;
        parent[e.peer] = u;
        parent_link[e.peer] = e.dlink;
        q.push_back(e.peer);
      }
    }
    for (int dst = 0; dst < k; ++dst) {
      MRL_CHECK_MSG(dist[dst] != -1, "topology is disconnected");
      MRL_CHECK_MSG(dist[dst] <= Route::kMaxHops,
                    "route longer than Route::kMaxHops");
      std::array<DirectedLink, Route::kMaxHops> hops;
      int h = dist[dst];
      for (int v = dst; v != src; v = parent[v]) hops[--h] = parent_link[v];
      TemplateRoute& r =
          template_routes_[static_cast<std::size_t>(src) * k + dst];
      r.channel_gbs = std::numeric_limits<double>::infinity();
      for (int i = 0; i < dist[dst]; ++i) {
        const LinkSpec& spec = links_[hops[i].link];
        r.hops.push_back(hops[i]);
        r.latency_us += spec.latency_us;
        r.channel_gbs = std::min(r.channel_gbs, spec.channel_gbs());
      }
    }
    if (nodes > 1) {
      max_to_nic = std::max(max_to_nic, dist[nic]);
      if (src == nic) max_from_nic = *std::max_element(dist.begin(), dist.end());
    }
  }
  MRL_CHECK_MSG(max_to_nic + 2 + max_from_nic <= Route::kMaxHops,
                "route longer than Route::kMaxHops");
  nodes_ = nodes;
  nic_ = nic;
  uplink_ = std::move(uplink);
  finalized_ = true;
}

Endpoint Topology::endpoint(int id) const {
  MRL_CHECK(id >= 0 && id < num_endpoints());
  const int k = template_endpoints();
  if (id == nodes_ * k) return Endpoint{"switch", EndpointKind::kSwitch};
  const Endpoint& e = endpoints_[id % k];
  if (nodes_ == 1) return e;
  std::string name = "n";
  name += std::to_string(id / k);
  name += '.';
  name += e.name;
  return Endpoint{std::move(name), e.kind};
}

const LinkSpec& Topology::link(int id) const {
  MRL_CHECK(id >= 0 && id < num_links());
  const int m = template_links();
  return id < nodes_ * m ? links_[id % m] : uplink_;
}

int Topology::link_endpoint(int link_id, int side) const {
  MRL_CHECK(link_id >= 0 && link_id < num_links());
  MRL_CHECK(side == 0 || side == 1);
  const int k = template_endpoints();
  const int m = template_links();
  if (link_id >= nodes_ * m) {  // an uplink: copy's NIC -> switch
    return side == 0 ? (link_id - nodes_ * m) * k + nic_ : nodes_ * k;
  }
  const auto [a, b] = link_ends_[link_id % m];
  return link_id / m * k + (side == 0 ? a : b);
}

template <typename Visit>
void Topology::for_each_hop(Place src, Place dst, Visit&& visit) const {
  const int k = template_endpoints();
  const int m = template_links();
  // Template route a -> b inside copy `node`, shifted to its link ids.
  const auto in_node = [&](int a, int b, int node) {
    for (const DirectedLink& dl :
         template_routes_[static_cast<std::size_t>(a) * k + b].hops) {
      visit(DirectedLink{dl.link + node * m, dl.dir}, links_[dl.link]);
    }
  };
  if (src.node == dst.node) {
    if (src.node < nodes_) in_node(src.local, dst.local, src.node);
    return;
  }
  if (src.node < nodes_) {
    in_node(src.local, nic_, src.node);
    visit(DirectedLink{nodes_ * m + src.node, 0}, uplink_);
  }
  if (dst.node < nodes_) {
    visit(DirectedLink{nodes_ * m + dst.node, 1}, uplink_);
    in_node(nic_, dst.local, dst.node);
  }
}

Route Topology::route(int src, int dst) const {
  Route r;
  for_each_hop(place(src), place(dst),
               [&r](DirectedLink dl, const LinkSpec&) { r.push_back(dl); });
  return r;
}

double Topology::route_latency_us(int src, int dst) const {
  const Place s = place(src);
  const Place d = place(dst);
  if (const TemplateRoute* t = same_node(s, d)) return t->latency_us;
  double lat = 0.0;
  for_each_hop(s, d, [&](DirectedLink, const LinkSpec& spec) {
    lat += spec.latency_us;
  });
  return lat;
}

double Topology::route_channel_gbs(int src, int dst) const {
  const Place s = place(src);
  const Place d = place(dst);
  if (const TemplateRoute* t = same_node(s, d)) return t->channel_gbs;
  double chan = std::numeric_limits<double>::infinity();
  for_each_hop(s, d, [&](DirectedLink, const LinkSpec& spec) {
    chan = std::min(chan, spec.channel_gbs());
  });
  return chan;
}

std::vector<int> Topology::endpoints_of_kind(EndpointKind k) const {
  std::vector<int> out;
  for (int i = 0; i < num_endpoints(); ++i)
    if (endpoint(i).kind == k) out.push_back(i);
  return out;
}

std::string Topology::describe() const {
  std::ostringstream os;
  os << "endpoints:\n";
  for (int i = 0; i < num_endpoints(); ++i) {
    const Endpoint e = endpoint(i);
    os << "  [" << i << "] " << e.name << " (" << to_string(e.kind) << ")\n";
  }
  os << "links:\n";
  for (int i = 0; i < num_links(); ++i) {
    const LinkSpec& s = link(i);
    os << "  " << endpoint(link_endpoint(i, 0)).name << " <-> "
       << endpoint(link_endpoint(i, 1)).name << "  " << s.name << "  "
       << format_gbs(s.bandwidth_gbs) << "/dir"
       << ", " << s.channels << " ch"
       << ", " << format_time_us(s.latency_us) << " hop\n";
  }
  return os.str();
}

namespace {

/// Heap bytes behind a string (0 while it fits the small-string buffer).
std::size_t heap_bytes(const std::string& s) {
  const auto data = reinterpret_cast<std::uintptr_t>(s.data());
  const auto self = reinterpret_cast<std::uintptr_t>(&s);
  return data >= self && data < self + sizeof(s) ? 0 : s.capacity() + 1;
}

}  // namespace

std::size_t Topology::bytes() const {
  std::size_t b = sizeof(*this) + heap_bytes(uplink_.name) +
                  endpoints_.capacity() * sizeof(Endpoint) +
                  links_.capacity() * sizeof(LinkSpec) +
                  link_ends_.capacity() * sizeof(link_ends_[0]) +
                  template_routes_.capacity() * sizeof(TemplateRoute);
  for (const Endpoint& e : endpoints_) b += heap_bytes(e.name);
  for (const LinkSpec& l : links_) b += heap_bytes(l.name);
  return b;
}

}  // namespace mrl::simnet
