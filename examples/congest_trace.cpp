// Example: what the CONGEST simulator actually does, round by round.
// Runs Métivier's algorithm on a small tree with a verbose round observer
// that also records per-round progress from Network::last_round(), then
// prints that progress and the final states — useful as a first look
// at the simulator API and for debugging new algorithms.
//
//   ./congest_trace [n] [seed]
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "graph/generators.h"
#include "mis/metivier.h"
#include "mis/verifier.h"
#include "sim/network.h"

int main(int argc, char** argv) {
  using namespace arbmis;
  const graph::NodeId n = argc > 1 ? std::atoi(argv[1]) : 24;
  const std::uint64_t seed = argc > 2 ? std::atoll(argv[2]) : 5;

  util::Rng rng(seed);
  const graph::Graph g = graph::gen::random_tree(n, rng);
  std::cout << "tree on " << n << " nodes; edges:";
  for (const graph::Edge& e : g.edges()) {
    std::cout << " " << e.u << "-" << e.v;
  }
  std::cout << "\n\n";

  mis::MetivierMis algorithm(g);
  sim::Network net(g, seed);

  // Observer that narrates node decisions as they happen and records the
  // round's halted count and message volume for the summary below.
  std::vector<mis::MisState> last(n, mis::MisState::kUndecided);
  std::ostringstream progress;
  const sim::RunStats stats = net.run(
      algorithm, 1 << 16,
      [&](const sim::Network& network, std::uint32_t round) {
        const sim::RoundDelta& delta = network.last_round();
        progress << "round " << round << ": halted=" << network.num_halted()
                 << " messages=" << delta.messages
                 << " bits=" << delta.payload_bits << '\n';
        for (graph::NodeId v = 0; v < n; ++v) {
          const mis::MisState now = algorithm.states()[v];
          if (now != last[v]) {
            std::cout << "  round " << round << ": node " << v
                      << (now == mis::MisState::kInMis ? " JOINS the MIS"
                                                       : " is covered")
                      << "\n";
            last[v] = now;
          }
        }
      });

  std::cout << "\nhalt progress per round:\n" << progress.str();

  mis::MisResult result;
  result.state = algorithm.states();
  result.stats = stats;
  std::cout << "\nrounds=" << stats.rounds << " messages=" << stats.messages
            << " (" << stats.payload_bits << " payload bits, max "
            << stats.max_edge_load << " message/edge/round)\n";
  std::cout << "MIS = {";
  bool first = true;
  for (graph::NodeId v : result.mis_nodes()) {
    std::cout << (first ? "" : ", ") << v;
    first = false;
  }
  std::cout << "}\nverified: "
            << (mis::verify(g, result).ok() ? "yes" : "NO") << "\n";
  return 0;
}
