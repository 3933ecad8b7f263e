// The HiPEC command set (§4.2, Table 1).
//
// A command is one 32-bit word: an 8-bit operator code and up to three 8-bit operands. An
// operand is usually an index into the container's 256-entry operand array; for some commands
// it is a flag (comparison kind, queue end, ...) or a branch target.
//
// Control flow follows the paper's Table 2 listing: *test* commands (Comp, Logic, EmptyQ,
// InQ, Ref, Mod — and those whose success is testable: Request, Flush, Find, Release) set the
// container's condition flag; every other command clears it; `Jump` branches when the flag is
// FALSE. This single rule reproduces the paper's example byte-for-byte semantics, where every
// "/* else */ Jump" follows a test and every unconditional jump follows a non-test command.
//
// Operand-index assignments inside the paper's own Table 2 listing are internally
// inconsistent (e.g. the _inactive_queue is fetched with operand 00 at CC 3 but 05 at CC 18);
// this implementation defines a canonical standard layout instead (see operand.h) and
// documents the deviation.
#ifndef HIPEC_HIPEC_INSTRUCTION_H_
#define HIPEC_HIPEC_INSTRUCTION_H_

#include <cstdint>
#include <optional>
#include <string>

namespace hipec::core {

// Operator codes, binary values exactly as listed in Table 1.
enum class Opcode : uint8_t {
  kReturn = 0x00,
  kArith = 0x01,
  kComp = 0x02,
  kLogic = 0x03,
  kEmptyQ = 0x04,
  kInQ = 0x05,
  kJump = 0x06,
  kDeQueue = 0x07,
  kEnQueue = 0x08,
  kRequest = 0x09,
  kRelease = 0x0A,
  kFlush = 0x0B,
  kSet = 0x0C,
  kRef = 0x0D,
  kMod = 0x0E,
  kFind = 0x0F,
  kActivate = 0x10,
  kFifo = 0x11,
  kLru = 0x12,
  kMru = 0x13,
  // --- extension commands (§6: "adding new HiPEC commands is easy") -------------------------
  // Migrate the frame in page-var op1 to the container whose id is in int operand op2
  // (the paper's first future-work item: "migrating physical frames between the relevant
  // jobs"). The target must have registered with accepts_migration; the frame arrives on its
  // private free list (dirty contents are flushed first). Condition flag = success.
  kMigrate = 0x14,
  // Remove the page in page-var op1 from whichever of this container's queues it is on, so a
  // policy can segregate pages into user-defined queues (e.g. a DBMS buffer manager keeping
  // index and heap pages apart).
  kUnlink = 0x15,
  // --- rank/score eviction commands (ROADMAP item 4: policy zoo) -----------------------------
  // Scan queue op1 and dequeue the page whose per-page scratch word is smallest (flag op3 = 1)
  // or largest (flag op3 = 2), writing it into page-var op2. The scratch word is the one
  // kPageWord reads and writes; ties keep the page nearest the head (stable). Charged as a
  // complex command like FIFO/LRU/MRU; executing it on an empty queue terminates the policy.
  kWeightedSelect = 0x16,
  // Saturating dot product for perceptron-style scoring: int operand op1 (writable) receives
  // sum over i in [0, n) of slots[op2 + i] * slots[op2 + n + i], where n = flag op3 in [1, 8].
  // The n weight slots and n feature slots must all be readable integers. Every multiply and
  // accumulate saturates to [INT64_MIN, INT64_MAX] instead of wrapping, so a runaway weight
  // cannot flip a score's sign.
  kSatDotProduct = 0x17,
  // Per-page scratch-word access: flag op3 = 1 loads the scratch word of the page in page-var
  // op1 into writable int operand op2; flag op3 = 2 stores readable int operand op2 into the
  // page's scratch word. The scratch word lives on the frame (VmPage::user_word), survives
  // queue moves, and is 0 on every freshly installed page.
  kPageWord = 0x18,
  // Age every page of queue op1 in place, one head-to-tail pass that moves no page: clear
  // the reference bit and rewrite the scratch word as value * 1024 + position, where the
  // position counts down from the queue length at the head to 1 at the tail. Flag op3 picks
  // the value rule (AgeMode); int operand op2 heads its parameter run. Charged as a complex
  // command: the per-page loop it replaces costs ~25-45 interpreted commands per page.
  kAgeScores = 0x19,
};

// Derived from the enum (last opcode + 1) so adding a command cannot silently desynchronize
// the name table or the decoder's dispatch mapping; static_asserts in instruction.cc and the
// exhaustive classifier switch in decoded.cc both key off this. Keep kAgeScores the last
// member.
inline constexpr int kOpcodeCount = static_cast<int>(Opcode::kAgeScores) + 1;
// Commands 0x00..0x13 are the paper's original set (Table 1).
inline constexpr int kPaperOpcodeCount = 20;

// Arith sub-operations (flag byte). In-place: op1 = op1 OP op2.
enum class ArithOp : uint8_t {
  kAdd = 1,
  kSub = 2,
  kMul = 3,
  kDiv = 4,
  kMod = 5,
  kMov = 6,      // op1 = op2
  kLoadImm = 7,  // op1 = literal op2 (0..255)
};

// Comp sub-operations (flag byte). Sets the condition flag to (op1 OP op2).
enum class CompOp : uint8_t {
  kGt = 1,  // Table 2 CC1 uses flag 01 for '>'
  kLt = 2,  // Table 2 (Lack_Free_Frame) CC1 uses flag 02 for '<'
  kEq = 3,
  kNe = 4,
  kGe = 5,
  kLe = 6,
};

// Logic sub-operations (flag byte). op1 = op1 OP op2 (booleanized); condition flag = result.
enum class LogicOp : uint8_t {
  kAnd = 1,
  kOr = 2,
  kXor = 3,
  kNot = 4,  // op1 = !op2
};

// Queue-end flag for DeQueue/EnQueue.
enum class QueueEnd : uint8_t {
  kHead = 1,
  kTail = 2,
};

// Which page bit Set manipulates (flag1), and to what (flag2: 0 clear / 1 set).
enum class PageBit : uint8_t {
  kReference = 1,
  kModify = 2,
};

// Scan direction flag for WeightedSelect.
enum class SelectMode : uint8_t {
  kMin = 1,
  kMax = 2,
};

// Access flag for PageWord.
enum class PageWordOp : uint8_t {
  kLoad = 1,
  kStore = 2,
};

// Value rule flag for AgeScores; `param` is op2, `value` the word's upper part (word / 1024).
enum class AgeMode : uint8_t {
  // AWRP: a referenced page gains slots[param]; an idle one loses 1, floored at 0.
  kAwrp = 1,
  // Perceptron: value = accum * 2 + prediction. The prediction is last pass's reference
  // bit; accum decays by 1 (floored at 0) and gains the saturating dot product of weights
  // slots[param..param+2] with (referenced, dirty, 1). Each misprediction votes +1
  // (referenced, predicted idle) or -1 (idle, predicted referenced); the vote sum is
  // written to slots[param+3].
  kPerceptron = 2,
};

// The widest dot product kSatDotProduct accepts (n = flag op3). Bounds the operand-range
// check in the decoder and the per-command cost the SecurityChecker's static scan assumes.
inline constexpr int kMaxDotWidth = 8;

struct Instruction {
  Opcode op = Opcode::kReturn;
  uint8_t op1 = 0;
  uint8_t op2 = 0;
  uint8_t op3 = 0;

  uint32_t Encode() const {
    return (static_cast<uint32_t>(op) << 24) | (static_cast<uint32_t>(op1) << 16) |
           (static_cast<uint32_t>(op2) << 8) | static_cast<uint32_t>(op3);
  }

  static Instruction Decode(uint32_t word) {
    return Instruction{static_cast<Opcode>(word >> 24), static_cast<uint8_t>(word >> 16),
                       static_cast<uint8_t>(word >> 8), static_cast<uint8_t>(word)};
  }

  bool operator==(const Instruction&) const = default;

  // "Comp 02,0C >" style rendering for listings and diagnostics.
  std::string ToString() const;
};

// True for commands that *set* the condition flag; all others clear it (see file comment).
bool SetsCondition(Opcode op);

// Mnemonic name ("Comp", "DeQueue", ...). nullopt for invalid codes.
std::optional<std::string> OpcodeName(Opcode op);
// Reverse lookup used by the assembler.
std::optional<Opcode> OpcodeFromName(const std::string& name);

// Whether the raw 8-bit code is one of the 20 defined commands.
bool IsValidOpcode(uint8_t code);

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_INSTRUCTION_H_
