// Ready-made HiPEC policy programs, all using the standard operand layout (operand.h):
//
//   * FifoSecondChancePolicy() — the paper's reference program (Table 2 / Figure 4): Mach's
//     own FIFO-with-second-chance, reimplemented as a user policy. Used by the Table 3
//     overhead experiment.
//   * MruPolicy()              — evict the most recently used page; the right policy for the
//     nested-loops join of §5.3 (Figure 6).
//   * LruPolicy()              — evict the least recently used page; the "popular in
//     conventional operating systems" comparison policy.
//   * FifoPolicy()             — plain FIFO.
//
// Each PageFault event first serves from the private free list and falls back to eviction;
// each program also carries the shared ReclaimFrame event, which releases frames preferring
// free -> inactive -> active. Variants exist using the *complex* commands (one FIFO/LRU/MRU
// command) and equivalent *simple-command* sequences; the command-granularity ablation
// (§4.2's flexibility-vs-overhead trade-off) compares them.
#ifndef HIPEC_POLICIES_POLICIES_H_
#define HIPEC_POLICIES_POLICIES_H_

#include "hipec/engine.h"
#include "hipec/program.h"

namespace hipec::policies {

// How the eviction step is expressed.
enum class CommandStyle {
  kComplex,  // one FIFO/LRU/MRU complex command
  kSimple,   // equivalent sequence of simple commands (queue-order based)
};

// The Table 2 program: FIFO with second chance over private active/inactive/free queues.
// Requires std-layout targets (free_target, inactive_target, reserved_target) to be set in
// HipecOptions.
core::PolicyProgram FifoSecondChancePolicy();

// Evict-most-recently-used. kSimple expresses MRU as DeQueue-tail of the active queue (exact
// when access order equals fault order, as in a sequential scan); kComplex uses the MRU
// command (exact always).
core::PolicyProgram MruPolicy(CommandStyle style = CommandStyle::kSimple);

// Evict-least-recently-used.
core::PolicyProgram LruPolicy(CommandStyle style = CommandStyle::kComplex);

// Plain FIFO (evict oldest-faulted).
core::PolicyProgram FifoPolicy(CommandStyle style = CommandStyle::kSimple);

// CLOCK (second chance over a single circular list), written entirely in simple commands:
// rotate the active queue clearing reference bits until an unreferenced victim appears.
core::PolicyProgram ClockPolicy();

// A 2Q-like policy: the engine's active queue serves as the probation FIFO (A1); pages found
// referenced when they reach its head are *promoted* to a protected user queue (Am) instead
// of being recycled. Victims come from unreferenced A1 heads first, then from Am. Scans pass
// through A1 without ever displacing the protected set — the classic scan-resistance
// argument, expressed in twenty HiPEC commands with one user-defined queue.
core::PolicyProgram TwoQueuePolicy();

// Options preset required by TwoQueuePolicy (one user queue).
core::HipecOptions TwoQueueOptions();

// AWRP (aging-weighted): each eviction ages the active queue with one AgeScores pass,
// rewarding pages found referenced (+64 to the score, clearing the bit) and linearly aging
// idle ones (-1, floor 0); the victim is the minimum-weight page (one WeightedSelect
// command). The per-page word packs score * 1024 + the page's position in the pass (newest =
// smallest), so score ties evict the newest page — MRU-like churn that lets a cold-start
// cyclic sweep converge on a stable resident set instead of degenerating to FIFO order,
// while the hot set of a hot/cold mix out-scores cold traffic and is never displaced. Runs
// with default HipecOptions: the reward goes through a standard scratch slot.
core::PolicyProgram AwrpPolicy();

// An online perceptron over per-page features (referenced-this-round, dirty, bias): the
// score is a saturating dot product against a learned weight vector, accumulated into the
// per-page word with linear decay, and the victim is the minimum-weight page. The
// referenced-feature weight trains on reuse mispredictions (+1 when a page predicted idle
// is re-referenced, -1 when a page predicted busy is not), but the votes are summed over the
// AgeScores pass and applied only after it — the weights stay frozen while pages are scored,
// so same-pass pages with identical behavior stay exactly tied. The word packs
// (accum * 2 + prediction) * 1024 + the pass position, so those ties evict the newest page
// (the same cold-start loop tie-break as AwrpPolicy). Requires PerceptronOptions().
core::PolicyProgram PerceptronPolicy();

// Options preset required by PerceptronPolicy: four user ints — w0..w2 (initialized 64, 8,
// 1) followed by the slot AgeScores writes the pass's vote sum into.
core::HipecOptions PerceptronOptions();

// The shared ReclaimFrame event used by all of the above (exposed for reuse by custom
// policies): releases up to kReclaimCount frames, preferring free, then inactive, then
// active pages.
std::vector<core::Instruction> StandardReclaimEvent();

}  // namespace hipec::policies

#endif  // HIPEC_POLICIES_POLICIES_H_
