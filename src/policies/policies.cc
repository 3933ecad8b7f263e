#include "policies/policies.h"

#include "hipec/builder.h"

namespace hipec::policies {

using core::ArithOp;
using core::CompOp;
using core::EventBuilder;
using core::PageBit;
using core::PolicyProgram;
namespace ops = hipec::core::std_ops;

std::vector<core::Instruction> StandardReclaimEvent() {
  EventBuilder b;
  auto loop = b.NewLabel();
  auto rel_free = b.NewLabel();
  auto rel_inactive = b.NewLabel();
  auto rel_active = b.NewLabel();
  auto dec = b.NewLabel();
  auto exit = b.NewLabel();

  b.Bind(loop);
  b.LoadImm(ops::kScratch0, 0);
  b.Comp(ops::kReclaimCount, ops::kScratch0, CompOp::kGt);
  b.JumpIfFalse(exit);  // count <= 0: done
  // Prefer clean free frames, then inactive, then active.
  b.EmptyQ(ops::kFreeQueue);
  b.JumpIfFalse(rel_free);  // not empty -> release from free
  b.EmptyQ(ops::kInactiveQueue);
  b.JumpIfFalse(rel_inactive);
  b.EmptyQ(ops::kActiveQueue);
  b.JumpIfFalse(rel_active);
  b.ClearCondition();
  b.JumpIfFalse(exit);  // nothing left to give

  b.Bind(rel_free);
  b.Release(ops::kFreeQueue);
  b.JumpIfFalse(exit);  // release failed
  b.JumpIfFalse(dec);   // release succeeded (prior Jump cleared the flag)

  b.Bind(rel_inactive);
  b.Release(ops::kInactiveQueue);
  b.JumpIfFalse(exit);
  b.JumpIfFalse(dec);

  b.Bind(rel_active);
  b.Release(ops::kActiveQueue);
  b.JumpIfFalse(exit);
  b.JumpIfFalse(dec);

  b.Bind(dec);
  b.LoadImm(ops::kScratch1, 1);
  b.Arith(ops::kReclaimCount, ops::kScratch1, ArithOp::kSub);
  b.JumpIfFalse(loop);

  b.Bind(exit);
  b.Return(0);
  return b.Build();
}

namespace {

// PageFault prologue shared by every policy: serve from the private free list when it is
// above reserved_target; otherwise fall through to the policy-specific eviction code.
void EmitFreeListFastPath(EventBuilder& b, EventBuilder::Label evict) {
  b.Comp(ops::kFreeCount, ops::kReservedTarget, CompOp::kGt);
  b.JumpIfFalse(evict);
  b.DeQueueHead(ops::kPage, ops::kFreeQueue);
  b.Return(ops::kPage);
}

// Common epilogue for eviction paths: flush the victim if dirty, then return it.
void EmitFlushAndReturn(EventBuilder& b) {
  auto clean = b.NewLabel();
  b.Mod(ops::kPage);
  b.JumpIfFalse(clean);  // not modified
  b.Flush(ops::kPage);   // exchange for a clean frame (asynchronous write-back)
  b.Bind(clean);
  b.Return(ops::kPage);
}

core::PolicyProgram OneEvictionPolicy(core::Opcode complex_op, bool take_tail,
                                      CommandStyle style) {
  PolicyProgram program;
  EventBuilder b;
  auto evict = b.NewLabel();
  EmitFreeListFastPath(b, evict);
  b.Bind(evict);
  if (style == CommandStyle::kComplex) {
    switch (complex_op) {
      case core::Opcode::kFifo:
        b.Fifo(ops::kActiveQueue, ops::kPage);
        break;
      case core::Opcode::kLru:
        b.Lru(ops::kActiveQueue, ops::kPage);
        break;
      default:
        b.Mru(ops::kActiveQueue, ops::kPage);
        break;
    }
  } else if (take_tail) {
    b.DeQueueTail(ops::kPage, ops::kActiveQueue);
  } else {
    b.DeQueueHead(ops::kPage, ops::kActiveQueue);
  }
  EmitFlushAndReturn(b);
  program.SetEvent(core::kEventPageFault, b.Build());
  program.SetEvent(core::kEventReclaimFrame, StandardReclaimEvent());
  return program;
}

}  // namespace

core::PolicyProgram MruPolicy(CommandStyle style) {
  // The engine appends faulted pages to the active-queue tail, so with a sequential access
  // pattern the tail is the most recently used page; kSimple is then exact.
  return OneEvictionPolicy(core::Opcode::kMru, /*take_tail=*/true, style);
}

core::PolicyProgram LruPolicy(CommandStyle style) {
  return OneEvictionPolicy(core::Opcode::kLru, /*take_tail=*/false, style);
}

core::PolicyProgram FifoPolicy(CommandStyle style) {
  return OneEvictionPolicy(core::Opcode::kFifo, /*take_tail=*/false, style);
}

core::PolicyProgram ClockPolicy() {
  PolicyProgram program;
  EventBuilder b;
  auto scan = b.NewLabel();
  auto evict = b.NewLabel();
  EmitFreeListFastPath(b, scan);
  // Rotate the clock hand: referenced pages get their bit cleared and go to the tail;
  // the first unreferenced page is the victim. Terminates within two revolutions.
  b.Bind(scan);
  b.DeQueueHead(ops::kPage, ops::kActiveQueue);
  b.Ref(ops::kPage);
  b.JumpIfFalse(evict);
  b.SetBit(ops::kPage, PageBit::kReference, false);
  b.EnQueueTail(ops::kPage, ops::kActiveQueue);
  b.JumpIfFalse(scan);
  b.Bind(evict);
  EmitFlushAndReturn(b);
  program.SetEvent(core::kEventPageFault, b.Build());
  program.SetEvent(core::kEventReclaimFrame, StandardReclaimEvent());
  return program;
}

core::PolicyProgram TwoQueuePolicy() {
  // Three stages (pages install with their reference bit set, so detecting a *re*-reference
  // needs a window in which the bit was cleared — the same trick as Mach's active/inactive
  // split):
  //   A1  = the engine-fed active queue: fresh faults. Drained into A1m with ref cleared.
  //   A1m = probation (user queue 0): pages evicted from here if not re-referenced;
  //         re-referenced pages are promoted.
  //   Am  = protected (user queue 1): the scan-resistant hot set, clock-rotated.
  const uint8_t kA1m = ops::kUserBase;
  const uint8_t kAm = ops::kUserBase + 1;
  PolicyProgram program;
  EventBuilder b;
  auto scan = b.NewLabel();
  auto move_a1 = b.NewLabel();
  auto check_a1m = b.NewLabel();
  auto evict = b.NewLabel();
  EmitFreeListFastPath(b, scan);

  b.Bind(scan);
  b.EmptyQ(ops::kActiveQueue);
  b.JumpIfFalse(move_a1);  // A1 non-empty: demote its head into probation
  b.EmptyQ(kA1m);
  b.JumpIfFalse(check_a1m);  // probation non-empty: judge its head
  // Only the protected queue is left: clock within Am.
  b.DeQueueHead(ops::kPage, kAm);
  b.Ref(ops::kPage);
  b.JumpIfFalse(evict);
  b.SetBit(ops::kPage, PageBit::kReference, false);
  b.EnQueueTail(ops::kPage, kAm);
  b.JumpIfFalse(scan);

  b.Bind(move_a1);
  b.DeQueueHead(ops::kPage, ops::kActiveQueue);
  b.SetBit(ops::kPage, PageBit::kReference, false);  // open the re-reference window
  b.EnQueueTail(ops::kPage, kA1m);
  b.JumpIfFalse(scan);

  b.Bind(check_a1m);
  b.DeQueueHead(ops::kPage, kA1m);
  b.Ref(ops::kPage);
  b.JumpIfFalse(evict);  // never touched again: a one-shot (scan) page
  b.SetBit(ops::kPage, PageBit::kReference, false);
  b.EnQueueTail(ops::kPage, kAm);  // promotion into the protected set
  b.JumpIfFalse(scan);

  b.Bind(evict);
  EmitFlushAndReturn(b);
  program.SetEvent(core::kEventPageFault, b.Build());
  program.SetEvent(core::kEventReclaimFrame, StandardReclaimEvent());
  return program;
}

core::HipecOptions TwoQueueOptions() {
  core::HipecOptions options;
  options.user_queue_count = 2;  // A1m at kUserBase, Am at kUserBase+1
  return options;
}

core::PolicyProgram AwrpPolicy() {
  PolicyProgram program;
  EventBuilder b;
  auto evict = b.NewLabel();
  EmitFreeListFastPath(b, evict);

  // One AgeScores pass over the active queue per eviction: +64 for a referenced page, -1
  // (floored at 0) for an idle one. The reward rides in a standard scratch slot, so the
  // policy runs with default HipecOptions. The word packs score * 1024 + the page's position,
  // which counts down from the queue length at the head to 1 at the tail, so among equal
  // scores the *newest* page holds the smallest word and WeightedSelectMin evicts it first.
  // That tie-break is what makes a cold-start loop converge: without it, equal-score ties
  // resolve toward the queue head (oldest page — exactly the page a cyclic scan needs next)
  // and the policy degenerates to FIFO's 0% hit ratio. With it, one-touch churn recycles the
  // newest frame while the surviving set earns rewards and stabilizes.
  b.Bind(evict);
  b.LoadImm(ops::kScratch1, 64);
  b.AgeScores(ops::kActiveQueue, ops::kScratch1, core::AgeMode::kAwrp);
  b.WeightedSelectMin(ops::kActiveQueue, ops::kPage);
  EmitFlushAndReturn(b);
  program.SetEvent(core::kEventPageFault, b.Build());
  program.SetEvent(core::kEventReclaimFrame, StandardReclaimEvent());
  return program;
}

// Perceptron operand layout: AgeScores reads the 3 weights from consecutive integer slots and
// writes the pass's vote sum into the slot right after them.
namespace perceptron_ops {
constexpr uint8_t kW0 = ops::kUserBase;         // weight: referenced-this-round (learned)
constexpr uint8_t kW1 = ops::kUserBase + 1;     // weight: dirty
constexpr uint8_t kW2 = ops::kUserBase + 2;     // weight: bias
constexpr uint8_t kVotes = ops::kUserBase + 3;  // the last pass's summed training votes
}  // namespace perceptron_ops

core::PolicyProgram PerceptronPolicy() {
  namespace pp = perceptron_ops;
  PolicyProgram program;
  EventBuilder b;
  auto evict = b.NewLabel();
  auto w0_low_ok = b.NewLabel();
  auto w0_high_ok = b.NewLabel();
  EmitFreeListFastPath(b, evict);

  // One AgeScores pass per eviction, like AWRP, scoring each page with the frozen weights
  // and voting on reuse mispredictions. The votes hit w0 only after the pass: updating w0
  // mid-pass hands every later (newer) page a strictly higher score than the page before
  // it, which freezes the accumulators in queue order — the head is the minimum forever and
  // the policy degenerates to exact FIFO. Frozen weights keep same-pass pages tied, which is
  // what the newest-on-tie position digit needs to break (see AwrpPolicy).
  b.Bind(evict);
  b.AgeScores(ops::kActiveQueue, pp::kW0, core::AgeMode::kPerceptron);
  // Apply the batched weight votes, clamping w0 to [1, 96].
  b.Arith(pp::kW0, pp::kVotes, ArithOp::kAdd);
  b.LoadImm(ops::kScratch1, 1);
  b.Comp(pp::kW0, ops::kScratch1, CompOp::kLt);
  b.JumpIfFalse(w0_low_ok);
  b.Arith(pp::kW0, ops::kScratch1, ArithOp::kMov);
  b.Bind(w0_low_ok);
  b.LoadImm(ops::kScratch1, 96);
  b.Comp(pp::kW0, ops::kScratch1, CompOp::kGt);
  b.JumpIfFalse(w0_high_ok);
  b.Arith(pp::kW0, ops::kScratch1, ArithOp::kMov);
  b.Bind(w0_high_ok);
  b.WeightedSelectMin(ops::kActiveQueue, ops::kPage);
  EmitFlushAndReturn(b);
  program.SetEvent(core::kEventPageFault, b.Build());
  program.SetEvent(core::kEventReclaimFrame, StandardReclaimEvent());
  return program;
}

core::HipecOptions PerceptronOptions() {
  namespace pp = perceptron_ops;
  core::HipecOptions options;
  options.user_int_count = 4;  // w0..w2, votes
  options.user_int_inits = {
      {pp::kW0, 64, /*read_only=*/false},
      {pp::kW1, 8, /*read_only=*/false},
      {pp::kW2, 1, /*read_only=*/false},
  };
  return options;
}

core::PolicyProgram FifoSecondChancePolicy() {
  PolicyProgram program;

  // --- PageFault (Table 2, upper listing) -----------------------------------------------------
  {
    EventBuilder b;
    auto lack = b.NewLabel();
    auto retry = b.NewLabel();
    b.Bind(retry);
    b.Comp(ops::kFreeCount, ops::kReservedTarget, CompOp::kGt);
    b.JumpIfFalse(lack);  // "/* else */ Jump to (CC==5)"
    b.DeQueueHead(ops::kPage, ops::kFreeQueue);
    b.Return(ops::kPage);
    b.Bind(lack);
    b.Activate(core::kFirstUserEvent);  // "Activate Lack_free_frame event"
    b.JumpIfFalse(retry);               // unconditional: Activate cleared the flag
    program.SetEvent(core::kEventPageFault, b.Build());
  }

  // --- Lack_Free_Frame (Table 2, lower listing / Figure 4 pseudo-code) ------------------------
  {
    EventBuilder b;
    auto refill_loop = b.NewLabel();
    auto refill_body = b.NewLabel();
    auto free_loop = b.NewLabel();
    auto free_body = b.NewLabel();
    auto not_referenced = b.NewLabel();
    auto clean = b.NewLabel();
    auto exit = b.NewLabel();

    // while (inactive_count < inactive_target) { move active head -> inactive tail, reset ref }
    b.Bind(refill_loop);
    b.Comp(ops::kInactiveCount, ops::kInactiveTarget, CompOp::kLt);
    b.JumpIfFalse(free_loop);
    b.EmptyQ(ops::kActiveQueue);
    b.JumpIfFalse(refill_body);  // active queue non-empty
    b.JumpIfFalse(free_loop);    // active queue drained (flag cleared by the jump above)
    b.Bind(refill_body);
    b.DeQueueHead(ops::kPage, ops::kActiveQueue);
    b.SetBit(ops::kPage, PageBit::kReference, false);
    b.EnQueueTail(ops::kPage, ops::kInactiveQueue);
    b.JumpIfFalse(refill_loop);

    // while (free_count < free_target) { second-chance scan of the inactive queue }
    b.Bind(free_loop);
    b.Comp(ops::kFreeCount, ops::kFreeTarget, CompOp::kLt);
    b.JumpIfFalse(exit);
    b.EmptyQ(ops::kInactiveQueue);
    b.JumpIfFalse(free_body);  // inactive queue non-empty
    b.JumpIfFalse(exit);
    b.Bind(free_body);
    b.DeQueueHead(ops::kPage, ops::kInactiveQueue);
    b.Ref(ops::kPage);
    b.JumpIfFalse(not_referenced);
    // Referenced while inactive: second chance.
    b.EnQueueTail(ops::kPage, ops::kActiveQueue);
    b.SetBit(ops::kPage, PageBit::kReference, false);
    b.JumpIfFalse(free_loop);
    b.Bind(not_referenced);
    b.Mod(ops::kPage);
    b.JumpIfFalse(clean);
    b.Flush(ops::kPage);
    b.Bind(clean);
    b.EnQueueHead(ops::kPage, ops::kFreeQueue);
    b.JumpIfFalse(free_loop);

    b.Bind(exit);
    b.Return(0);
    program.SetEvent(core::kFirstUserEvent, b.Build());
  }

  program.SetEvent(core::kEventReclaimFrame, StandardReclaimEvent());
  return program;
}

}  // namespace hipec::policies
