#include "src/base/lock_order.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace neve::lock_order {
namespace {

// The detector's own state is guarded by a raw std::mutex: it cannot
// instrument itself, and Panic() must never be reached while holding it
// (panic hooks acquire instrumented neve::Mutexes).
struct Registry {
  std::mutex mu;
  std::map<std::string, int, std::less<>> ids;
  std::vector<const char*> names;              // class id -> name
  std::map<int, std::set<int>> edges;          // a -> b: a held while locking b
  std::map<std::pair<int, int>, std::string> witnesses;  // edge -> held stack
  uint64_t edge_count = 0;
};

Registry& Reg() {
  static auto* registry = new Registry;
  return *registry;
}

// Acquisition counts, striped by thread: one shared counter would be a
// cache line every acquiring thread writes, the very contention the fast
// path exists to avoid. Acquisitions() sums the stripes.
struct alignas(64) AcquisitionStripe {
  std::atomic<uint64_t> count{0};
};
constexpr unsigned kAcquisitionStripes = 16;
AcquisitionStripe g_acquisitions[kAcquisitionStripes];
std::atomic<unsigned> g_next_stripe{0};
thread_local AcquisitionStripe& tls_acquisitions =
    g_acquisitions[g_next_stripe.fetch_add(1, std::memory_order_relaxed) %
                   kAcquisitionStripes];

// Bumped by ResetForTest, which empties the graph: every thread's seen-edge
// cache from an older generation is stale and is dropped on next use.
std::atomic<uint64_t> g_generation{0};

// Classes this thread currently holds, in acquisition order. thread_local:
// only ever touched by the owning thread.
thread_local std::vector<int> tls_held;

// Edges (held << 32 | acquired) this thread has seen recorded in the graph,
// valid for graph generation tls_seen_generation. Edges only ever join the
// graph, and an edge already in it can never close a cycle, so an
// acquisition whose every edge is cached has nothing to check or record.
thread_local std::unordered_set<uint64_t> tls_seen;
thread_local uint64_t tls_seen_generation = 0;

uint64_t EdgeKey(int held, int acquired) {
  return static_cast<uint64_t>(held) << 32 | static_cast<uint32_t>(acquired);
}

// The calling thread's seen-edge cache, emptied first when ResetForTest
// has run since the thread last used it.
std::unordered_set<uint64_t>& SeenEdges() {
  uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (tls_seen_generation != generation) {
    tls_seen.clear();
    tls_seen_generation = generation;
  }
  return tls_seen;
}

// True when acquiring `id` needs nothing from the registry: it is not
// reentrant, and every held -> id edge it would add (none when !add_edges)
// is one this thread has already seen recorded.
bool NothingToRecord(int id, bool add_edges) {
  const std::unordered_set<uint64_t>& seen = SeenEdges();
  for (int held : tls_held) {
    if (held == id || (add_edges && seen.count(EdgeKey(held, id)) == 0)) {
      return false;
    }
  }
  return true;
}

// Caller holds reg.mu.
std::string HeldNames(const Registry& reg, const std::vector<int>& held) {
  if (held.empty()) {
    return "(none)";
  }
  std::string out;
  for (int id : held) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += reg.names[static_cast<size_t>(id)];
  }
  return out;
}

// Caller holds reg.mu. True when `to` is reachable from `from` in the edge
// set; fills `path` with the class ids visited from -> ... -> to.
bool PathExists(const Registry& reg, int from, int to, std::vector<int>& path) {
  std::vector<int> stack{from};
  std::map<int, int> parent;  // child -> parent in the DFS tree
  std::set<int> visited{from};
  while (!stack.empty()) {
    int node = stack.back();
    stack.pop_back();
    if (node == to) {
      path.clear();
      for (int n = to; n != from; n = parent[n]) {
        path.push_back(n);
      }
      path.push_back(from);
      std::reverse(path.begin(), path.end());
      return true;
    }
    auto it = reg.edges.find(node);
    if (it == reg.edges.end()) {
      continue;
    }
    for (int next : it->second) {
      if (visited.insert(next).second) {
        parent[next] = node;
        stack.push_back(next);
      }
    }
  }
  return false;
}

// Caller holds reg.mu. "" when acquiring `id` is safe; otherwise the panic
// message for the reentrant-acquire or cycle it would create.
std::string CheckAndRecord(Registry& reg, int id, bool add_edges) {
  const char* name = reg.names[static_cast<size_t>(id)];
  for (int held : tls_held) {
    if (held == id) {
      return std::string("lock-order: reentrant acquire of '") + name +
             "' (self-deadlock); this thread holds: " +
             HeldNames(reg, tls_held);
    }
  }
  if (add_edges) {
    std::unordered_set<uint64_t>& seen = SeenEdges();
    for (int held : tls_held) {
      auto [it, new_edge] = reg.edges[held].insert(id);
      (void)it;
      if (!new_edge) {
        seen.insert(EdgeKey(held, id));
        continue;
      }
      std::vector<int> path;
      if (PathExists(reg, id, held, path)) {
        // Acquiring id while holding held, but id -> ... -> held is already
        // established: the classic AB/BA deadlock, caught on whichever
        // interleaving performs the second nesting.
        std::string msg = std::string("lock-order cycle: acquiring '") + name +
                          "' while holding '" +
                          reg.names[static_cast<size_t>(held)] +
                          "', but the reverse order " + HeldNames(reg, path) +
                          " is established\n  this thread holds: " +
                          HeldNames(reg, tls_held);
        auto wit = reg.witnesses.find({path[0], path[1]});
        if (wit != reg.witnesses.end()) {
          msg += "\n  prior acquisition of '" +
                 std::string(reg.names[static_cast<size_t>(path[1])]) +
                 "' held: " + wit->second;
        }
        reg.edges[held].erase(id);
        return msg;
      }
      reg.witnesses[{held, id}] = HeldNames(reg, tls_held);
      ++reg.edge_count;
      seen.insert(EdgeKey(held, id));
    }
  }
  tls_held.push_back(id);
  return "";
}

// Records the acquisition of `class_id` by the calling thread; panics on a
// reentrant acquire or, when add_edges, on an edge that closes a cycle.
void Acquire(int class_id, bool add_edges) {
  tls_acquisitions.count.fetch_add(1, std::memory_order_relaxed);
  if (NothingToRecord(class_id, add_edges)) {
    tls_held.push_back(class_id);
    return;
  }
  Registry& reg = Reg();
  std::string panic_msg;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    panic_msg = CheckAndRecord(reg, class_id, add_edges);
  }
  // Panic outside reg.mu: panic hooks acquire instrumented mutexes, which
  // would re-enter the detector.
  if (!panic_msg.empty()) {
    Panic(__FILE__, __LINE__, panic_msg);
  }
}

}  // namespace

int ClassId(const char* name) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.ids.find(name);
  if (it == reg.ids.end()) {
    it = reg.ids.emplace(name, static_cast<int>(reg.names.size())).first;
    reg.names.push_back(name);
  }
  return it->second;
}

void OnLock(int class_id) { Acquire(class_id, /*add_edges=*/true); }

void OnTryLockSuccess(int class_id) { Acquire(class_id, /*add_edges=*/false); }

void OnUnlock(int class_id) {
  // Drop the most recent hold of the class (unlock order need not be LIFO).
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (*it == class_id) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
}

uint64_t Acquisitions() {
  uint64_t total = 0;
  for (const AcquisitionStripe& stripe : g_acquisitions) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Edges() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.edge_count;
}

std::string GraphDump() {
  Registry& reg = Reg();
  std::vector<std::pair<std::string, std::string>> lines;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& [from, tos] : reg.edges) {
      for (int to : tos) {
        lines.emplace_back(reg.names[static_cast<size_t>(from)],
                           reg.names[static_cast<size_t>(to)]);
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [from, to] : lines) {
    out += from + " -> " + to + "\n";
  }
  return out;
}

void ResetForTest() {
  for (AcquisitionStripe& stripe : g_acquisitions) {
    stripe.count.store(0, std::memory_order_relaxed);
  }
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.edges.clear();
  reg.witnesses.clear();
  reg.edge_count = 0;
  g_generation.fetch_add(1, std::memory_order_release);
}

}  // namespace neve::lock_order
