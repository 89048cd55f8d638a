// Conflict-abstraction verification walkthrough (§3 "Correctness" +
// Appendix E): check the paper's counter CA, refute a broken variant with a
// counterexample, verify the striped map CA for several M and count its
// false conflicts, and exhibit the Figure 3 empty-queue subtlety on the
// priority-queue model.
#include <cstdio>

#include "verify/checker.hpp"
#include "verify/synth.hpp"

using namespace proust::verify;

namespace {
void report(const char* label, const ModelSpec& model,
            const ConflictAbstractionFn& ca) {
  const auto cex = check_conflict_abstraction(model, ca);
  if (cex) {
    std::printf("%-28s REFUTED\n    %s\n", label, cex->detail.c_str());
  } else {
    std::printf("%-28s OK  (false conflicts: %zu of %zu pairs)\n", label,
                count_false_conflicts(model, ca), count_pairs(model));
  }
}
}  // namespace

int main() {
  std::printf("== Counter (§3) ==\n");
  const ModelSpec counter = make_counter_model(6);
  report("paper CA (threshold 2)", counter, counter_ca_paper());
  report("broken CA (threshold 1)", counter, counter_ca_threshold1());

  std::printf("\n== Map with striped CA (k mod M) ==\n");
  const ModelSpec map = make_map_model(3, 2);
  for (int m : {1, 2, 4, 8}) {
    char label[64];
    std::snprintf(label, sizeof(label), "striped CA, M=%d", m);
    report(label, map, map_ca_striped(m));
  }
  report("broken CA (readless gets)", map, map_ca_readless());

  // The §3 striping trade-off decided on the bounded model: fewer CA
  // locations save memory but make commuting pairs conflict.
  std::printf("\n== Striping trade-off: false conflicts on the 4-key map "
              "model ==\n");
  const ModelSpec map4 = make_map_model(4, 2);
  for (int m : {1, 2, 3, 4}) {
    std::printf("M=%d  false conflicts: %zu of %zu pairs\n", m,
                count_false_conflicts(map4, map_ca_striped(m)),
                count_pairs(map4));
  }

  std::printf("\n== Priority queue (Listing 3 / Figure 3) ==\n");
  const ModelSpec pq = make_pqueue_model(3, 4);
  report("our CA (empty ins -> W(Min))", pq, pqueue_ca_ours(3, 4));
  report("Figure 3 literal", pq, pqueue_ca_figure3_literal(3, 4));
  std::printf(
      "\nThe literal Figure 3 CA reads (not writes) PQueueMin when inserting\n"
      "into an empty queue; the checker exhibits the missed conflict with\n"
      "min()/removeMin(). Our wrappers use the corrected CA (DESIGN.md).\n");

  std::printf("\n== FIFO queue (Head/Tail decomposition, TxnQueue) ==\n");
  const ModelSpec q = make_queue_model(2, 4);
  report("our CA (empty deq -> R(Tail))", q, queue_ca_ours(2, 4));
  report("broken (no empty read)", q, queue_ca_no_empty_read(2, 4));

  std::printf("\n== Ordered map with range queries (TxnOrderedMap) ==\n");
  const ModelSpec om = make_ordered_map_model(4, 2);
  report("interval CA, M=4", om, ordered_map_ca_interval(4));
  report("interval CA, M=2", om, ordered_map_ca_interval(2));
  report("broken (lower bound only)", om, ordered_map_ca_lower_only(4));

  std::printf("\n== CEGIS synthesis (Sec. 9 future work, implemented) ==\n");
  {
    const SynthesisResult r =
        synthesize(make_counter_synthesis_problem(counter));
    std::printf("counter: %s\n", r.found ? "SYNTHESIZED" : "no CA in space");
    if (r.found) {
      std::printf("  choice: %s\n", r.summary.c_str());
      std::printf("  verified: %zu candidates model-checked, %zu pruned by "
                  "%zu counterexamples\n",
                  r.candidates_proposed, r.candidates_pruned,
                  r.counterexamples.size());
      std::printf("  false conflicts: synthesized=%zu vs paper CA=%zu\n",
                  count_false_conflicts(counter, r.ca),
                  count_false_conflicts(counter, counter_ca_paper()));
    }
  }
  {
    const SynthesisResult r = synthesize(make_queue_synthesis_problem(q));
    std::printf("queue:   %s\n", r.found ? "SYNTHESIZED" : "no CA in space");
    if (r.found) std::printf("  choice: %s\n", r.summary.c_str());
  }
  return 0;
}
