// The x86-64 template emitter: one hand-written machine-code fragment per DispatchKind,
// stitched per event with resolved rel32 jump targets.
//
// Register plan (SysV, all callee-saved so the bridges preserve them):
//   r12  JitFrame*                        rbx  operand-slot base (OperandEntry[256])
//   r13  budget VALUE (live counter)      rbp  &Container::kill_requested (1-byte flag)
//   r15  &PolicyExecutor::condition_      r14  virtual now VALUE (deterministic mode only)
//
// r13 and r14 hold live VALUES, not addresses: the per-command budget decrement is one
// register dec and the decode-cost charge is add+cmp with no memory traffic. The price is a
// spill/reload pair around every call into C++ — a bridge can consume budget (a nested
// Activate shares the counter through JitFrame::budget) and advance the clock — and a final
// spill in the shared epilogue so the wrapper always sees current memory. Bridges are on the
// cold path (queue ops are inlined below), so the trade wins.
//
// The condition flag deliberately lives in MEMORY (through r15), not in a register: Activate
// and any Request-triggered reclaim re-enter policy execution, and the nested event shares the
// executor's thread-local flag. One byte store per command epilogue keeps every nesting level
// coherent, exactly like the interpreter's `condition_ = cond`.
//
// Per-command shape mirrors dispatch_loop.inc byte-for-byte in observable order:
//   prologue: kill check -> budget decrement -> decode-cost charge (inlined virtual-clock
//             fast path against the cached horizon, out-of-line bridge stub on the slow path)
//   body:     inlined (arith/comp/logic/jump/bits/EmptyQ/InQ/queue splices/fused pairs) or a
//             bridge call
//   epilogue: store condition byte, optional trace bridge, fall through / branch
// Trap-outside slots raise *before* the prologue, matching the interpreter's loop-top check.
//
// Exit protocol: rax holds a JitStatus (jit.h). Bridges return 0/1 for ok/condition; any
// value > 1 is a status the stitched code returns immediately (`cmp rax,1; ja epilogue`).
#include <cstring>
#include <deque>
#include <vector>

#include "hipec/jit_internal.h"

#if defined(__x86_64__)

namespace hipec::core::jit::internal {
namespace {

// --- registers -----------------------------------------------------------------------------
constexpr int RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7;
constexpr int R12 = 12, R13 = 13, R14 = 14, R15 = 15;

// --- condition codes (Jcc 0F 8x / SETcc 0F 9x low nibble) ----------------------------------
constexpr uint8_t CC_E = 0x4, CC_NE = 0x5, CC_A = 0x7, CC_S = 0x8;
constexpr uint8_t CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE, CC_G = 0xF;
constexpr uint8_t CC_Z = CC_E, CC_NZ = CC_NE;

constexpr const char kOutsideMsg[] = "control fell outside the command stream";

// A minimal one-pass assembler: byte vector + rel32 labels with back-patching. Memory
// operands always use the mod=10 disp32 form (with the SIB byte rsp/r12 require), and a REX
// prefix is always emitted — uniform encodings over minimal ones; this is cold install-time
// code producing a few KB per policy.
struct Asm {
  std::vector<uint8_t> code;

  struct Label {
    int32_t pos = -1;
    std::vector<uint32_t> fixups;
  };

  void Byte(uint8_t v) { code.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Rex(bool w, int reg, int rm) {
    Byte(static_cast<uint8_t>(0x40 | (w ? 8 : 0) | (((reg >> 3) & 1) << 2) | ((rm >> 3) & 1)));
  }
  void ModMem(int reg, int base, int32_t disp) {
    Byte(static_cast<uint8_t>(0x80 | ((reg & 7) << 3) | (base & 7)));
    if ((base & 7) == RSP) Byte(0x24);  // SIB: base only
    U32(static_cast<uint32_t>(disp));
  }
  void ModReg(int reg, int rm) {
    Byte(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  void Bind(Label* l) {
    l->pos = static_cast<int32_t>(code.size());
    for (uint32_t at : l->fixups) Patch(at, l->pos);
    l->fixups.clear();
  }
  void Patch(uint32_t at, int32_t target) {
    int32_t rel = target - static_cast<int32_t>(at + 4);
    std::memcpy(code.data() + at, &rel, 4);
  }
  void Ref(Label* l) {
    if (l->pos >= 0) {
      U32(static_cast<uint32_t>(l->pos - (static_cast<int32_t>(code.size()) + 4)));
    } else {
      l->fixups.push_back(static_cast<uint32_t>(code.size()));
      U32(0);
    }
  }
  void Jmp(Label* l) { Byte(0xE9); Ref(l); }
  void Jcc(uint8_t cc, Label* l) { Byte(0x0F); Byte(static_cast<uint8_t>(0x80 | cc)); Ref(l); }

  // mov r64, [base+disp] / mov [base+disp], r64 / mov r64, r64
  void MovRM(int dst, int base, int32_t disp) { Rex(1, dst, base); Byte(0x8B); ModMem(dst, base, disp); }
  void MovMR(int base, int32_t disp, int src) { Rex(1, src, base); Byte(0x89); ModMem(src, base, disp); }
  void MovRR(int dst, int src) { Rex(1, src, dst); Byte(0x89); ModReg(src, dst); }
  // mov r32, imm32 (zero-extends) / mov r64, imm64
  void MovRI32(int reg, uint32_t imm) { Rex(0, 0, reg); Byte(static_cast<uint8_t>(0xB8 | (reg & 7))); U32(imm); }
  void MovRI64(int reg, uint64_t imm) { Rex(1, 0, reg); Byte(static_cast<uint8_t>(0xB8 | (reg & 7))); U64(imm); }
  // mov qword [m], sext(imm32) / mov dword [m], imm32 / mov byte [m], imm8 / mov byte [m], r8
  void StoreQImm(int base, int32_t disp, int32_t imm) { Rex(1, 0, base); Byte(0xC7); ModMem(0, base, disp); U32(static_cast<uint32_t>(imm)); }
  void StoreDImm(int base, int32_t disp, uint32_t imm) { Rex(0, 0, base); Byte(0xC7); ModMem(0, base, disp); U32(imm); }
  void StoreBImm(int base, int32_t disp, uint8_t imm) { Rex(0, 0, base); Byte(0xC6); ModMem(0, base, disp); Byte(imm); }
  void StoreBReg(int base, int32_t disp, int src) { Rex(0, src, base); Byte(0x88); ModMem(src, base, disp); }
  // movzx r64, byte [m] / movzx r64, r8
  void LoadBZx(int dst, int base, int32_t disp) { Rex(1, dst, base); Byte(0x0F); Byte(0xB6); ModMem(dst, base, disp); }
  void MovzxRR8(int dst, int src) { Rex(1, dst, src); Byte(0x0F); Byte(0xB6); ModReg(dst, src); }
  // compares
  void CmpBImm(int base, int32_t disp, uint8_t imm) { Rex(0, 0, base); Byte(0x80); ModMem(7, base, disp); Byte(imm); }
  void CmpQImm8(int base, int32_t disp, int8_t imm) { Rex(1, 0, base); Byte(0x83); ModMem(7, base, disp); Byte(static_cast<uint8_t>(imm)); }
  void CmpRM(int reg, int base, int32_t disp) { Rex(1, reg, base); Byte(0x3B); ModMem(reg, base, disp); }
  void CmpRR(int a, int b) { Rex(1, b, a); Byte(0x39); ModReg(b, a); }  // cmp a, b
  void CmpRI8(int reg, int8_t imm) { Rex(1, 0, reg); Byte(0x83); ModReg(7, reg); Byte(static_cast<uint8_t>(imm)); }
  // arithmetic
  void AddRI32(int reg, int32_t imm) { Rex(1, 0, reg); Byte(0x81); ModReg(0, reg); U32(static_cast<uint32_t>(imm)); }
  void SubRI32(int reg, int32_t imm) { Rex(1, 0, reg); Byte(0x81); ModReg(5, reg); U32(static_cast<uint32_t>(imm)); }
  void AddMR(int base, int32_t disp, int src) { Rex(1, src, base); Byte(0x01); ModMem(src, base, disp); }
  void SubMR(int base, int32_t disp, int src) { Rex(1, src, base); Byte(0x29); ModMem(src, base, disp); }
  void ImulRM(int dst, int base, int32_t disp) { Rex(1, dst, base); Byte(0x0F); Byte(0xAF); ModMem(dst, base, disp); }
  void DecQ(int base, int32_t disp) { Rex(1, 0, base); Byte(0xFF); ModMem(1, base, disp); }
  void IncQ(int base, int32_t disp) { Rex(1, 0, base); Byte(0xFF); ModMem(0, base, disp); }
  void DecR(int reg) { Rex(1, 0, reg); Byte(0xFF); ModReg(1, reg); }
  void Cqo() { Byte(0x48); Byte(0x99); }
  void IdivR(int reg) { Rex(1, 0, reg); Byte(0xF7); ModReg(7, reg); }
  // logic / tests
  void TestRR(int a, int b) { Rex(1, b, a); Byte(0x85); ModReg(b, a); }
  void TestRR8(int a, int b) { Rex(0, b, a); Byte(0x84); ModReg(b, a); }
  void Setcc(uint8_t cc, int reg) { Rex(0, 0, reg); Byte(0x0F); Byte(static_cast<uint8_t>(0x90 | cc)); ModReg(0, reg); }
  void AndRR8(int dst, int src) { Rex(0, src, dst); Byte(0x20); ModReg(src, dst); }
  void OrRR8(int dst, int src) { Rex(0, src, dst); Byte(0x08); ModReg(src, dst); }
  void XorRR8(int dst, int src) { Rex(0, src, dst); Byte(0x30); ModReg(src, dst); }
  void XorRR32(int reg) { Rex(0, reg, reg); Byte(0x31); ModReg(reg, reg); }
  // calls / stack / return
  void CallR(int reg) { Rex(0, 0, reg); Byte(0xFF); ModReg(2, reg); }
  void Push(int reg) { if (reg >= 8) Byte(0x41); Byte(static_cast<uint8_t>(0x50 | (reg & 7))); }
  void Pop(int reg) { if (reg >= 8) Byte(0x41); Byte(static_cast<uint8_t>(0x58 | (reg & 7))); }
  void SubRsp8(int8_t v) { Byte(0x48); Byte(0x83); Byte(0xEC); Byte(static_cast<uint8_t>(v)); }
  void AddRsp8(int8_t v) { Byte(0x48); Byte(0x83); Byte(0xC4); Byte(static_cast<uint8_t>(v)); }
  void Ret() { Byte(0xC3); }
};

// setcc code for a compare kind, shared by kComp* and kFusedComp*Jump (both blocks are in
// CompOp order: Gt, Lt, Eq, Ne, Ge, Le).
uint8_t CompCC(int sub) {
  static constexpr uint8_t kMap[6] = {CC_G, CC_L, CC_E, CC_NE, CC_GE, CC_LE};
  return kMap[sub];
}

uint64_t BridgeAddr(uint64_t (*fn)(JitFrame*, uint64_t, uint64_t, uint64_t)) {
  return reinterpret_cast<uint64_t>(fn);
}

}  // namespace

bool EmitEventX86(const DecodedEvent& stream, const OperandArray& operands,
                  const CompileOptions& options, int event, EventArtifact* out) {
  for (const DecodedInst& inst : stream.insts) {
    if (KindMasked(inst.kind)) {
      return false;
    }
  }
  const HostOffsets& off = Offsets();
  const size_t n = stream.insts.size();

  Asm a;
  std::vector<Asm::Label> slots(n);
  Asm::Label Lep, Lkill, Lbudget, Loutside;
  // Out-of-line error exits reached from inlined bodies. std::deque: labels must not move
  // once referenced.
  struct ErrorStub {
    Asm::Label label;
    const char* msg;
    uint8_t status;  // JitStatus 4 or 5
    uint8_t operand;
  };
  std::deque<ErrorStub> error_stubs;
  auto StaticError = [&](const char* msg) {
    error_stubs.push_back({{}, msg, 4, 0});
    return &error_stubs.back().label;
  };
  auto OperandError = [&](const char* msg, uint8_t operand) {
    error_stubs.push_back({{}, msg, 5, operand});
    return &error_stubs.back().label;
  };

  std::vector<JitFragment> frags;
  auto AddFrag = [&](uint16_t cc, DispatchKind kind, size_t start) {
    frags.push_back(JitFragment{event, cc, kind, static_cast<uint32_t>(start),
                                static_cast<uint32_t>(a.code.size() - start)});
  };

  auto SlotDisp = [&](uint8_t idx, uint32_t field) {
    return static_cast<int32_t>(idx * off.op_size + field);
  };
  // The decode-time operand classification is baked in: a kQueueCount slot loads
  // queue->count_, anything else (kInt) loads int_value — LoadInt without the branch.
  auto LoadIntTo = [&](int dst, uint8_t idx) {
    if (operands.TypeOf(idx) == OperandType::kQueueCount) {
      a.MovRM(dst, RBX, SlotDisp(idx, off.op_queue));
      a.MovRM(dst, dst, static_cast<int32_t>(off.q_count));
    } else {
      a.MovRM(dst, RBX, SlotDisp(idx, off.op_int));
    }
  };

  // r13 (budget) and r14 (virtual now) are live values; every call into C++ must see them
  // in memory first — a nested Activate consumes budget through JitFrame::budget and any
  // bridge may advance the clock — and must be assumed to have changed both.
  auto SpillHot = [&](int scratch) {
    a.MovRM(scratch, R12, static_cast<int32_t>(off.f_budget));
    a.MovMR(scratch, 0, R13);
    if (options.deterministic) {
      a.MovRM(scratch, R12, static_cast<int32_t>(off.f_now));
      a.MovMR(scratch, 0, R14);
    }
  };
  auto ReloadHot = [&](int scratch) {
    a.MovRM(scratch, R12, static_cast<int32_t>(off.f_budget));
    a.MovRM(R13, scratch, 0);
    if (options.deterministic) {
      a.MovRM(scratch, R12, static_cast<int32_t>(off.f_now));
      a.MovRM(R14, scratch, 0);
    }
  };

  auto EmitBridge = [&](uint64_t (*fn)(JitFrame*, uint64_t, uint64_t, uint64_t), uint32_t a1,
                        uint32_t a2, uint32_t a3) {
    SpillHot(RSI);
    a.MovRR(RDI, R12);
    a.MovRI32(RSI, a1);
    a.MovRI32(RDX, a2);
    a.MovRI32(RCX, a3);
    a.MovRI64(RAX, BridgeAddr(fn));
    a.CallR(RAX);
    ReloadHot(RSI);
  };
  // After a bridge: rax <= 1 is ok/condition, anything above is a status to return.
  auto EmitStatusCheck = [&]() {
    a.CmpRI8(RAX, 1);
    a.Jcc(CC_A, &Lep);
  };

  // Out-of-line slow paths for the per-command charge: undo the tentative add, bridge into
  // VirtualClock::Advance (which fires the due events), resume. std::deque — labels must not
  // move once referenced.
  struct ChargeStub {
    Asm::Label slow;
    Asm::Label back;
  };
  std::deque<ChargeStub> charge_stubs;

  // The per-command prologue: kill flag, budget backstop, decode-cost charge. The charge
  // inlines VirtualClock::Advance's fast path: `now + delta < horizon` (the cached earliest
  // deadline) means no event fires and advancing is a register add — the tentatively-added
  // r14 simply stays. Otherwise the out-of-line stub takes over. In real-threads mode
  // Charge() is a no-op, so nothing is emitted.
  auto EmitGuards = [&]() {
    a.CmpBImm(RBP, 0, 0);
    a.Jcc(CC_NE, &Lkill);
    a.DecR(R13);
    a.Jcc(CC_S, &Lbudget);
    if (options.deterministic) {
      charge_stubs.push_back({});
      ChargeStub& stub = charge_stubs.back();
      if (options.decode_ns != 0) {
        a.AddRI32(R14, static_cast<int32_t>(options.decode_ns));
      }
      a.CmpRM(R14, R12, static_cast<int32_t>(off.f_horizon));
      a.Jcc(CC_GE, &stub.slow);
      a.Bind(&stub.back);
    }
  };

  enum CondSrc { kCondZero, kCondFromAl, kCondFromMem };
  auto EmitTrace = [&](uint16_t cc, uint8_t op, CondSrc src) {
    Asm::Label skip;
    a.CmpQImm8(R12, static_cast<int32_t>(off.f_trace), 0);
    a.Jcc(CC_E, &skip);
    switch (src) {  // arg 3 (rcx) first: kCondFromAl must read al before rax is clobbered
      case kCondZero: a.XorRR32(RCX); break;
      case kCondFromAl: a.MovzxRR8(RCX, RAX); break;
      case kCondFromMem: a.LoadBZx(RCX, R15, 0); break;
    }
    SpillHot(RSI);
    a.MovRR(RDI, R12);
    a.MovRI32(RSI, cc);
    a.MovRI32(RDX, op);
    a.MovRI64(RAX, BridgeAddr(HipecJitBridgeTrace));
    a.CallR(RAX);
    ReloadHot(RSI);
    a.TestRR(RAX, RAX);
    a.Jcc(CC_NZ, &Lep);
    a.Bind(&skip);
  };

  // Command epilogues (dispatch_next): latch the condition flag, trace, fall through to the
  // next slot (which is emitted immediately after).
  auto NonTestTail = [&](uint16_t cc, uint8_t op) {
    a.StoreBImm(R15, 0, 0);
    EmitTrace(cc, op, kCondZero);
  };
  auto TestTailFromAl = [&](uint16_t cc, uint8_t op) {
    a.StoreBReg(R15, 0, RAX);
    EmitTrace(cc, op, kCondFromAl);
  };

  // The arithmetic core, shared by kArith* and the fused LoadImm;Arith second half.
  auto EmitArithCore = [&](DispatchKind kind, uint8_t dst, uint8_t src) {
    const int32_t dst_int = SlotDisp(dst, off.op_int);
    switch (kind) {
      case DispatchKind::kArithAdd:
        LoadIntTo(RAX, src);
        a.AddMR(RBX, dst_int, RAX);
        break;
      case DispatchKind::kArithSub:
        LoadIntTo(RAX, src);
        a.SubMR(RBX, dst_int, RAX);
        break;
      case DispatchKind::kArithMul:
        LoadIntTo(RAX, src);
        a.ImulRM(RAX, RBX, dst_int);
        a.MovMR(RBX, dst_int, RAX);
        break;
      case DispatchKind::kArithDiv:
      case DispatchKind::kArithMod: {
        const bool is_div = kind == DispatchKind::kArithDiv;
        LoadIntTo(RCX, src);
        a.TestRR(RCX, RCX);
        a.Jcc(CC_Z, StaticError(is_div ? "Arith: division by zero" : "Arith: modulo by zero"));
        a.MovRM(RAX, RBX, dst_int);
        a.Cqo();
        a.IdivR(RCX);
        a.MovMR(RBX, dst_int, is_div ? RAX : RDX);
        break;
      }
      default:  // kArithMov — mirrors the interpreter's default arm
        LoadIntTo(RAX, src);
        a.MovMR(RBX, dst_int, RAX);
        break;
    }
  };

  // The inlined intrusive-queue splices. "Inward" is the link pointing into the list from
  // the end being worked (q_next at the head, q_prev at the tail); the opposite link of an
  // end element is null by list invariant, which the splices exploit.
  //
  // DeQueue{Head,Tail}: PageQueue::Remove specialized to an end element — detach it, fix the
  // neighbor's back link (or the far anchor when the queue empties), null its membership,
  // decrement the count, store it into the page slot. The empty-queue error fires exactly
  // where the interpreter's does.
  auto EmitDeqCore = [&](bool take_tail, uint8_t dst, uint8_t qslot) {
    const auto end_off = static_cast<int32_t>(take_tail ? off.q_tail : off.q_head);
    const auto far_off = static_cast<int32_t>(take_tail ? off.q_head : off.q_tail);
    const auto inward_off = static_cast<int32_t>(take_tail ? off.pg_q_prev : off.pg_q_next);
    const auto outward_off = static_cast<int32_t>(take_tail ? off.pg_q_next : off.pg_q_prev);
    a.MovRM(RCX, RBX, SlotDisp(qslot, off.op_queue));
    a.MovRM(RAX, RCX, end_off);
    a.TestRR(RAX, RAX);
    a.Jcc(CC_Z, StaticError("DeQueue from an empty queue (guard with EmptyQ or a count)"));
    a.MovRM(RDX, RAX, inward_off);  // the new end (null when this was the only element)
    a.MovMR(RCX, end_off, RDX);
    Asm::Label fixup, done;
    a.TestRR(RDX, RDX);
    a.Jcc(CC_NZ, &fixup);
    a.StoreQImm(RCX, far_off, 0);  // queue is now empty
    a.Jmp(&done);
    a.Bind(&fixup);
    a.StoreQImm(RDX, outward_off, 0);  // the new end has no outward neighbor
    a.Bind(&done);
    a.StoreQImm(RAX, inward_off, 0);  // the outward link was already null (it was the end)
    a.StoreQImm(RAX, static_cast<int32_t>(off.pg_queue), 0);
    a.DecQ(RCX, static_cast<int32_t>(off.q_count));
    a.MovMR(RBX, SlotDisp(dst, off.op_page), RAX);
  };

  // EnQueue{Head,Tail}: the interpreter's three checks (operand holds a page, the container
  // owns it, it is not already queued) in the same order with the same messages, then the
  // PageQueue::Enqueue* splice. enqueue_ns takes r14 — the already-charged virtual now,
  // which is exactly what kctx.now() reads in the interpreter's handler — so this core is
  // deterministic-mode only (real-threads mode keeps the bridge and its real-clock read).
  auto EmitEnqCore = [&](bool at_tail, uint8_t pslot, uint8_t qslot) {
    const auto end_off = static_cast<int32_t>(at_tail ? off.q_tail : off.q_head);
    const auto far_off = static_cast<int32_t>(at_tail ? off.q_head : off.q_tail);
    const auto inward_off = static_cast<int32_t>(at_tail ? off.pg_q_prev : off.pg_q_next);
    const auto outward_off = static_cast<int32_t>(at_tail ? off.pg_q_next : off.pg_q_prev);
    a.MovRM(RAX, RBX, SlotDisp(pslot, off.op_page));
    a.TestRR(RAX, RAX);
    a.Jcc(CC_Z, OperandError("page variable is empty", pslot));
    a.MovRM(RDX, R12, static_cast<int32_t>(off.f_container));
    a.CmpRM(RDX, RAX, static_cast<int32_t>(off.pg_owner));
    a.Jcc(CC_NE, StaticError("EnQueue of a frame the application does not own"));
    a.CmpQImm8(RAX, static_cast<int32_t>(off.pg_queue), 0);
    a.Jcc(CC_NE, StaticError("EnQueue of a page that is already on a queue"));
    a.MovRM(RCX, RBX, SlotDisp(qslot, off.op_queue));
    a.MovMR(RAX, static_cast<int32_t>(off.pg_queue), RCX);  // the release store, as one mov
    a.MovMR(RAX, static_cast<int32_t>(off.pg_enqueue_ns), R14);
    a.StoreQImm(RAX, outward_off, 0);
    a.MovRM(RDX, RCX, end_off);  // the old end (null when the queue is empty)
    a.MovMR(RAX, inward_off, RDX);
    Asm::Label link, done;
    a.TestRR(RDX, RDX);
    a.Jcc(CC_NZ, &link);
    a.MovMR(RCX, far_off, RAX);  // was empty: the page becomes both ends
    a.Jmp(&done);
    a.Bind(&link);
    a.MovMR(RDX, outward_off, RAX);  // the old end gains an outward neighbor
    a.Bind(&done);
    a.MovMR(RCX, end_off, RAX);
    a.IncQ(RCX, static_cast<int32_t>(off.q_count));
  };

  // --- event prologue ------------------------------------------------------------------------
  {
    const size_t start = a.code.size();
    a.Push(RBP); a.Push(RBX); a.Push(R12); a.Push(R13); a.Push(R14); a.Push(R15);
    a.SubRsp8(8);  // entry rsp%16==8; 6 pushes keep it — realign for the bridge call sites
    a.MovRR(R12, RDI);
    a.MovRM(RBX, R12, static_cast<int32_t>(off.f_slots));
    a.MovRM(RAX, R12, static_cast<int32_t>(off.f_budget));
    a.MovRM(R13, RAX, 0);
    a.MovRM(R15, R12, static_cast<int32_t>(off.f_condition));
    a.MovRM(RBP, R12, static_cast<int32_t>(off.f_kill));
    if (options.deterministic) {
      a.MovRM(RAX, R12, static_cast<int32_t>(off.f_now));
      a.MovRM(R14, RAX, 0);
    }
    a.Jmp(&slots[1]);  // execution starts at slot 1; slot 0 is the magic word's trap
    AddFrag(0xfffe, DispatchKind::kTrapOutside, start);
  }

  // --- one fragment per slot -----------------------------------------------------------------
  for (size_t cc = 0; cc < n; ++cc) {
    const DecodedInst& d = stream.insts[cc];
    a.Bind(&slots[cc]);
    const size_t start = a.code.size();
    const auto cc16 = static_cast<uint16_t>(cc);
    const auto kind_index = static_cast<uint8_t>(d.kind);

    switch (d.kind) {
      case DispatchKind::kTrapOutside:
        // Before the prologue: matches the interpreter's loop-top check, which fires before
        // the command is charged.
        a.Jmp(&Loutside);
        break;

      case DispatchKind::kTrapError:
        EmitGuards();
        a.StoreDImm(R12, static_cast<int32_t>(off.f_trap_index), d.target);
        a.MovRI32(RAX, static_cast<uint32_t>(JitStatus::kErrorTrap));
        a.Jmp(&Lep);
        break;

      case DispatchKind::kReturn:
        EmitGuards();
        EmitTrace(cc16, d.raw_op, kCondFromMem);  // Return traces the *current* flag, no clear
        a.StoreQImm(R12, static_cast<int32_t>(off.f_return_operand), d.a);
        a.XorRR32(RAX);
        a.Jmp(&Lep);
        break;

      case DispatchKind::kJump: {
        EmitGuards();
        // Branches when the flag is FALSE. Decide first, then clear + trace on each tail —
        // the trace bridge clobbers the scratch registers.
        a.LoadBZx(RAX, R15, 0);
        a.StoreBImm(R15, 0, 0);
        a.TestRR8(RAX, RAX);
        Asm::Label taken;
        a.Jcc(CC_Z, &taken);
        EmitTrace(cc16, d.raw_op, kCondZero);
        a.Jmp(&slots[cc + 1]);
        a.Bind(&taken);
        EmitTrace(cc16, d.raw_op, kCondZero);
        a.Jmp(&slots[d.target]);
        break;
      }

      case DispatchKind::kActivate:
        EmitGuards();
        EmitBridge(HipecJitBridgeActivate, d.a, 0, 0);
        EmitStatusCheck();
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kArithAdd:
      case DispatchKind::kArithSub:
      case DispatchKind::kArithMul:
      case DispatchKind::kArithDiv:
      case DispatchKind::kArithMod:
      case DispatchKind::kArithMov:
        EmitGuards();
        EmitArithCore(d.kind, d.a, d.b);
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kArithLoadImm:
        EmitGuards();
        a.StoreQImm(RBX, SlotDisp(d.a, off.op_int), d.b);
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kCompGt:
      case DispatchKind::kCompLt:
      case DispatchKind::kCompEq:
      case DispatchKind::kCompNe:
      case DispatchKind::kCompGe:
      case DispatchKind::kCompLe:
        EmitGuards();
        LoadIntTo(RAX, d.a);
        LoadIntTo(RCX, d.b);
        a.CmpRR(RAX, RCX);
        a.Setcc(CompCC(kind_index - static_cast<uint8_t>(DispatchKind::kCompGt)), RAX);
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kLogicAnd:
      case DispatchKind::kLogicOr:
      case DispatchKind::kLogicXor:
        EmitGuards();
        a.MovRM(RAX, RBX, SlotDisp(d.a, off.op_int));  // A is a plain int (decoder-proven)
        a.TestRR(RAX, RAX);
        a.Setcc(CC_NE, RAX);
        LoadIntTo(RCX, d.b);
        a.TestRR(RCX, RCX);
        a.Setcc(CC_NE, RCX);
        if (d.kind == DispatchKind::kLogicAnd) {
          a.AndRR8(RAX, RCX);
        } else if (d.kind == DispatchKind::kLogicOr) {
          a.OrRR8(RAX, RCX);
        } else {
          a.XorRR8(RAX, RCX);  // (A!=0) != (B!=0)
        }
        a.MovzxRR8(RAX, RAX);
        a.MovMR(RBX, SlotDisp(d.a, off.op_int), RAX);
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kLogicNot:
        EmitGuards();
        LoadIntTo(RCX, d.b);
        a.TestRR(RCX, RCX);
        a.Setcc(CC_E, RAX);
        a.MovzxRR8(RAX, RAX);
        a.MovMR(RBX, SlotDisp(d.a, off.op_int), RAX);
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kEmptyQ:
        EmitGuards();
        a.MovRM(RCX, RBX, SlotDisp(d.a, off.op_queue));
        a.CmpQImm8(RCX, static_cast<int32_t>(off.q_count), 0);
        a.Setcc(CC_E, RAX);
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kInQ:
        EmitGuards();
        a.MovRM(RCX, RBX, SlotDisp(d.b, off.op_page));
        a.TestRR(RCX, RCX);
        a.Jcc(CC_Z, OperandError("page variable is empty", d.b));
        a.MovRM(RAX, RCX, static_cast<int32_t>(off.pg_queue));
        a.CmpRM(RAX, RBX, SlotDisp(d.a, off.op_queue));
        a.Setcc(CC_E, RAX);
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kDeQueueHead:
      case DispatchKind::kDeQueueTail:
        EmitGuards();
        EmitDeqCore(d.kind == DispatchKind::kDeQueueTail, d.a, d.b);
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kEnQueueHead:
      case DispatchKind::kEnQueueTail:
        EmitGuards();
        if (options.deterministic) {
          EmitEnqCore(d.kind == DispatchKind::kEnQueueTail, d.a, d.b);
        } else {
          EmitBridge(HipecJitBridgeEnq, d.a, d.b,
                     d.kind == DispatchKind::kEnQueueTail ? 1 : 0);
          EmitStatusCheck();
        }
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kRequest:
        EmitGuards();
        EmitBridge(HipecJitBridgeRequest, d.a, d.b, 0);
        EmitStatusCheck();
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kReleaseQueue:
        EmitGuards();
        EmitBridge(HipecJitBridgeReleaseQueue, d.a, 0, 0);
        EmitStatusCheck();
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kReleasePage:
        EmitGuards();
        EmitBridge(HipecJitBridgeReleasePage, d.a, 0, 0);
        EmitStatusCheck();
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kFlush:
        EmitGuards();
        EmitBridge(HipecJitBridgeFlush, d.a, 0, 0);
        EmitStatusCheck();
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kSetReference:
      case DispatchKind::kSetModify:
        EmitGuards();
        a.MovRM(RCX, RBX, SlotDisp(d.a, off.op_page));
        a.TestRR(RCX, RCX);
        a.Jcc(CC_Z, OperandError("page variable is empty", d.a));
        a.StoreBImm(RCX,
                    static_cast<int32_t>(d.kind == DispatchKind::kSetReference
                                             ? off.pg_reference
                                             : off.pg_modified),
                    d.b != 0 ? 1 : 0);
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kRefBit:
      case DispatchKind::kModBit:
        EmitGuards();
        a.MovRM(RCX, RBX, SlotDisp(d.a, off.op_page));
        a.TestRR(RCX, RCX);
        a.Jcc(CC_Z, OperandError("page variable is empty", d.a));
        a.LoadBZx(RAX, RCX,
                  static_cast<int32_t>(d.kind == DispatchKind::kRefBit ? off.pg_reference
                                                                       : off.pg_modified));
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kFind:
        EmitGuards();
        EmitBridge(HipecJitBridgeFind, d.a, d.b, 0);
        EmitStatusCheck();
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kFifo:
      case DispatchKind::kLru:
      case DispatchKind::kMru:
        EmitGuards();
        EmitBridge(HipecJitBridgeReplacement, d.a, d.b, d.raw_op);
        EmitStatusCheck();
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kMigrate:
        EmitGuards();
        EmitBridge(HipecJitBridgeMigrate, d.a, d.b, 0);
        EmitStatusCheck();
        TestTailFromAl(cc16, d.raw_op);
        break;

      case DispatchKind::kUnlink:
        EmitGuards();
        EmitBridge(HipecJitBridgeUnlink, d.a, 0, 0);
        EmitStatusCheck();
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kWeightedSelectMin:
      case DispatchKind::kWeightedSelectMax:
        EmitGuards();
        EmitBridge(HipecJitBridgeWeightedSelect, d.a, d.b,
                   d.kind == DispatchKind::kWeightedSelectMax ? 1 : 0);
        EmitStatusCheck();
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kSatDotProduct:
        // A bridge call: the saturating kernel is shared with the interpreter (SatDotSlots),
        // so the two paths cannot drift at the overflow boundaries.
        EmitGuards();
        EmitBridge(HipecJitBridgeSatDot, d.a, d.b, d.target);
        EmitStatusCheck();
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kAgeScores:
        EmitGuards();
        EmitBridge(HipecJitBridgeAgeScores, d.a, d.b, d.target);
        EmitStatusCheck();
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kPageWordLoad:
        EmitGuards();
        a.MovRM(RCX, RBX, SlotDisp(d.a, off.op_page));
        a.TestRR(RCX, RCX);
        a.Jcc(CC_Z, OperandError("page variable is empty", d.a));
        a.MovRM(RAX, RCX, static_cast<int32_t>(off.pg_user_word));
        a.MovMR(RBX, SlotDisp(d.b, off.op_int), RAX);
        NonTestTail(cc16, d.raw_op);
        break;

      case DispatchKind::kPageWordStore:
        EmitGuards();
        a.MovRM(RCX, RBX, SlotDisp(d.a, off.op_page));
        a.TestRR(RCX, RCX);
        a.Jcc(CC_Z, OperandError("page variable is empty", d.a));
        LoadIntTo(RAX, d.b);
        a.MovMR(RCX, static_cast<int32_t>(off.pg_user_word), RAX);
        NonTestTail(cc16, d.raw_op);
        break;

      // --- superinstructions: both halves inline, with the inter-command prologue between —
      // trace/flag/charge order is byte-identical to the unfused stream. -------------------
      case DispatchKind::kFusedCompGtJump:
      case DispatchKind::kFusedCompLtJump:
      case DispatchKind::kFusedCompEqJump:
      case DispatchKind::kFusedCompNeJump:
      case DispatchKind::kFusedCompGeJump:
      case DispatchKind::kFusedCompLeJump: {
        EmitGuards();
        LoadIntTo(RAX, d.a);
        LoadIntTo(RCX, d.b);
        a.CmpRR(RAX, RCX);
        a.Setcc(CompCC(kind_index - static_cast<uint8_t>(DispatchKind::kFusedCompGtJump)),
                RAX);
        a.StoreBReg(R15, 0, RAX);
        EmitTrace(cc16, d.raw_op, kCondFromAl);
        EmitGuards();  // the Jump's own prologue
        a.LoadBZx(RAX, R15, 0);
        a.StoreBImm(R15, 0, 0);
        a.TestRR8(RAX, RAX);
        Asm::Label fall;
        a.Jcc(CC_NZ, &fall);
        EmitTrace(static_cast<uint16_t>(cc + 1), static_cast<uint8_t>(Opcode::kJump),
                  kCondZero);
        a.Jmp(&slots[d.target]);
        a.Bind(&fall);
        EmitTrace(static_cast<uint16_t>(cc + 1), static_cast<uint8_t>(Opcode::kJump),
                  kCondZero);
        a.Jmp(&slots[cc + 2]);
        break;
      }

      case DispatchKind::kFusedDeqHeadEnqHead:
      case DispatchKind::kFusedDeqHeadEnqTail:
        EmitGuards();
        EmitDeqCore(/*take_tail=*/false, d.a, d.b);
        a.StoreBImm(R15, 0, 0);
        EmitTrace(cc16, d.raw_op, kCondZero);
        EmitGuards();  // the EnQueue's own prologue
        if (options.deterministic) {
          EmitEnqCore(d.kind == DispatchKind::kFusedDeqHeadEnqTail,
                      d.a, static_cast<uint8_t>(d.target));
        } else {
          EmitBridge(HipecJitBridgeEnq, d.a, d.target,
                     d.kind == DispatchKind::kFusedDeqHeadEnqTail ? 1 : 0);
          EmitStatusCheck();
        }
        a.StoreBImm(R15, 0, 0);
        EmitTrace(static_cast<uint16_t>(cc + 1), static_cast<uint8_t>(Opcode::kEnQueue),
                  kCondZero);
        a.Jmp(&slots[cc + 2]);
        break;

      case DispatchKind::kFusedLoadImmArith:
        EmitGuards();
        a.StoreQImm(RBX, SlotDisp(d.a, off.op_int), d.b);
        a.StoreBImm(R15, 0, 0);
        EmitTrace(cc16, d.raw_op, kCondZero);
        EmitGuards();  // the Arith's own prologue
        EmitArithCore(static_cast<DispatchKind>(d.reserved),
                      static_cast<uint8_t>(d.target >> 8), static_cast<uint8_t>(d.target));
        a.StoreBImm(R15, 0, 0);
        EmitTrace(static_cast<uint16_t>(cc + 1), static_cast<uint8_t>(Opcode::kArith),
                  kCondZero);
        a.Jmp(&slots[cc + 2]);
        break;
    }
    AddFrag(cc16, d.kind, start);
  }

  // --- shared exit stubs ---------------------------------------------------------------------
  {
    const size_t start = a.code.size();
    // Charge slow paths: undo the tentative add (the bridge re-applies the full delta through
    // VirtualClock::Advance, firing due events), bridge, resume after the guard.
    for (ChargeStub& stub : charge_stubs) {
      a.Bind(&stub.slow);
      if (options.decode_ns != 0) {
        a.SubRI32(R14, static_cast<int32_t>(options.decode_ns));
      }
      EmitBridge(HipecJitBridgeCharge, static_cast<uint32_t>(options.decode_ns), 0, 0);
      a.TestRR(RAX, RAX);
      a.Jcc(CC_NZ, &Lep);
      a.Jmp(&stub.back);
    }
    a.Bind(&Lkill);
    a.MovRI32(RAX, static_cast<uint32_t>(JitStatus::kKill));
    a.Jmp(&Lep);
    a.Bind(&Lbudget);
    a.MovRI32(RAX, static_cast<uint32_t>(JitStatus::kBudget));
    a.Jmp(&Lep);
    a.Bind(&Loutside);
    a.MovRI64(RCX, reinterpret_cast<uint64_t>(kOutsideMsg));
    a.MovMR(R12, static_cast<int32_t>(off.f_error_msg), RCX);
    a.MovRI32(RAX, static_cast<uint32_t>(JitStatus::kErrorStatic));
    a.Jmp(&Lep);
    for (ErrorStub& stub : error_stubs) {
      a.Bind(&stub.label);
      a.MovRI64(RCX, reinterpret_cast<uint64_t>(stub.msg));
      a.MovMR(R12, static_cast<int32_t>(off.f_error_msg), RCX);
      if (stub.status == static_cast<uint8_t>(JitStatus::kErrorOperand)) {
        a.StoreDImm(R12, static_cast<int32_t>(off.f_error_operand), stub.operand);
      }
      a.MovRI32(RAX, stub.status);
      a.Jmp(&Lep);
    }
    a.Bind(&Lep);  // rax = JitStatus
    SpillHot(RCX);  // the wrapper reads budget (and the clock) from memory after return
    a.AddRsp8(8);
    a.Pop(R15); a.Pop(R14); a.Pop(R13); a.Pop(R12); a.Pop(RBX); a.Pop(RBP);
    a.Ret();
    AddFrag(0xffff, DispatchKind::kTrapOutside, start);
  }

  out->code = std::move(a.code);
  out->fragments = std::move(frags);
  return true;
}

}  // namespace hipec::core::jit::internal

#endif  // defined(__x86_64__)
