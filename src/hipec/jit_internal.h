// Internals shared between the JIT driver (jit.cc) and the per-arch emitters
// (jit_x86_64.cc). Nothing here is part of the public surface in jit.h.
#ifndef HIPEC_HIPEC_JIT_INTERNAL_H_
#define HIPEC_HIPEC_JIT_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "hipec/jit.h"
#include "hipec/operand.h"

namespace hipec::core::jit::internal {

// Displacements the emitter bakes into memory operands. Probed at run time from live
// objects (not offsetof) so no layout assumption beyond "member addresses are stable" is
// made — JitFrame holds an exception_ptr and VmPage holds atomics, neither of which needs
// to be standard layout for this to work.
struct HostOffsets {
  // JitFrame
  uint32_t f_slots, f_budget, f_condition, f_kill, f_now, f_horizon, f_trace;
  uint32_t f_container;
  uint32_t f_return_operand, f_error_msg, f_error_operand, f_trap_index;
  // OperandEntry
  uint32_t op_size, op_int, op_page, op_queue;
  // mach::PageQueue / mach::VmPage
  uint32_t q_count, q_head, q_tail;
  uint32_t pg_queue, pg_reference, pg_modified;
  uint32_t pg_q_prev, pg_q_next, pg_owner, pg_enqueue_ns;
  uint32_t pg_user_word;
};
const HostOffsets& Offsets();

// True when SetUnsupportedKindForTesting masked this kind out.
bool KindMasked(DispatchKind kind);

// ---- bridges ------------------------------------------------------------------------------
// The only way generated code calls back into C++. ABI: SysV, (JitFrame*, a, b, c) ->
// uint64_t. Return 0 = ok / condition false, 1 = ok / condition true; anything else is a
// JitStatus the generated code must return immediately (today only kException — every C++
// failure, PolicyError and TimeoutSignal included, is captured into JitFrame::pending so it
// never unwinds through the JIT frame). Each bridge refreshes JitFrame::horizon before
// returning, since any of them may advance the clock or schedule events.
extern "C" {
uint64_t HipecJitBridgeCharge(JitFrame* f, uint64_t delta_ns, uint64_t, uint64_t);
uint64_t HipecJitBridgeTrace(JitFrame* f, uint64_t cc, uint64_t op, uint64_t cond);
uint64_t HipecJitBridgeActivate(JitFrame* f, uint64_t event, uint64_t, uint64_t);
// DeQueue head/tail of queue slot b into page slot a (tail != 0 selects DequeueTail).
uint64_t HipecJitBridgeDeq(JitFrame* f, uint64_t a, uint64_t b, uint64_t tail);
// EnQueue page slot a onto queue slot b (also the second half of the fused Deq;Enq pair,
// which passes the fused record's target queue as b).
uint64_t HipecJitBridgeEnq(JitFrame* f, uint64_t a, uint64_t b, uint64_t tail);
uint64_t HipecJitBridgeRequest(JitFrame* f, uint64_t a, uint64_t b, uint64_t);
uint64_t HipecJitBridgeReleaseQueue(JitFrame* f, uint64_t a, uint64_t, uint64_t);
uint64_t HipecJitBridgeReleasePage(JitFrame* f, uint64_t a, uint64_t, uint64_t);
uint64_t HipecJitBridgeFlush(JitFrame* f, uint64_t a, uint64_t, uint64_t);
uint64_t HipecJitBridgeFind(JitFrame* f, uint64_t a, uint64_t b, uint64_t);
// kFifo/kLru/kMru — `kind` is the DispatchKind; charges the complex-command surcharge.
uint64_t HipecJitBridgeReplacement(JitFrame* f, uint64_t a, uint64_t b, uint64_t kind);
uint64_t HipecJitBridgeMigrate(JitFrame* f, uint64_t a, uint64_t b, uint64_t);
uint64_t HipecJitBridgeUnlink(JitFrame* f, uint64_t a, uint64_t, uint64_t);
// kWeightedSelectMin/Max — queue slot a, destination page slot b, is_max selects the
// direction; charges the complex-command surcharge like the other replacement commands.
uint64_t HipecJitBridgeWeightedSelect(JitFrame* f, uint64_t a, uint64_t b, uint64_t is_max);
// kAgeScores — queue slot a, parameter base slot b, AgeMode from the decoded record's target
// field; charges the complex-command surcharge.
uint64_t HipecJitBridgeAgeScores(JitFrame* f, uint64_t a, uint64_t b, uint64_t mode);
// kSatDotProduct — destination int slot a, vector base slot b, width n (from the decoded
// record's target field).
uint64_t HipecJitBridgeSatDot(JitFrame* f, uint64_t a, uint64_t b, uint64_t n);
}

// ---- per-arch emitters --------------------------------------------------------------------

// One compiled event, before placement: `code` is position-independent (all internal jumps
// rel32 within the blob, all external calls absolute imm64), fragment offsets are relative
// to the blob start.
struct EventArtifact {
  std::vector<uint8_t> code;
  std::vector<JitFragment> fragments;
};

#if defined(__x86_64__)
// Emits one event's native code. Returns false (leaving `out` untouched) when a kind in the
// stream is masked out for testing, which makes the whole event fall back to the
// interpreter.
bool EmitEventX86(const DecodedEvent& stream, const OperandArray& operands,
                  const CompileOptions& options, int event, EventArtifact* out);
#endif

}  // namespace hipec::core::jit::internal

#endif  // HIPEC_HIPEC_JIT_INTERNAL_H_
