// A small assembler-style builder for HiPEC event programs: append commands, bind labels,
// and let the builder patch Jump targets. This is what "hand coding" a policy looks like with
// this library; the pseudo-code translator (src/lang) generates through the same interface.
#ifndef HIPEC_HIPEC_BUILDER_H_
#define HIPEC_HIPEC_BUILDER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "hipec/instruction.h"
#include "hipec/operand.h"
#include "hipec/program.h"
#include "sim/check.h"

namespace hipec::core {

class EventBuilder {
 public:
  using Label = int;

  Label NewLabel() { return next_label_++; }

  // Binds `label` to the *next* command to be emitted.
  void Bind(Label label) {
    HIPEC_CHECK_MSG(!bound_.contains(label), "label bound twice");
    bound_[label] = NextCc();
  }

  // --- raw emit -------------------------------------------------------------------------------
  EventBuilder& Emit(Instruction inst) {
    commands_.push_back(inst);
    return *this;
  }

  // --- convenience emitters (one per command) -------------------------------------------------
  EventBuilder& Return(uint8_t op = 0) { return Emit({Opcode::kReturn, op, 0, 0}); }
  EventBuilder& Arith(uint8_t dst, uint8_t src, ArithOp op) {
    return Emit({Opcode::kArith, dst, src, static_cast<uint8_t>(op)});
  }
  EventBuilder& LoadImm(uint8_t dst, uint8_t imm) {
    return Emit({Opcode::kArith, dst, imm, static_cast<uint8_t>(ArithOp::kLoadImm)});
  }
  // A no-op whose only effect is clearing the condition flag (making a following Jump
  // unconditional after a test command).
  EventBuilder& ClearCondition() {
    return Arith(std_ops::kScratch0, std_ops::kScratch0, ArithOp::kMov);
  }
  EventBuilder& Comp(uint8_t lhs, uint8_t rhs, CompOp op) {
    return Emit({Opcode::kComp, lhs, rhs, static_cast<uint8_t>(op)});
  }
  EventBuilder& Logic(uint8_t dst, uint8_t src, LogicOp op) {
    return Emit({Opcode::kLogic, dst, src, static_cast<uint8_t>(op)});
  }
  EventBuilder& EmptyQ(uint8_t queue) { return Emit({Opcode::kEmptyQ, queue, 0, 0}); }
  EventBuilder& InQ(uint8_t queue, uint8_t page) { return Emit({Opcode::kInQ, queue, page, 0}); }
  // Jump-if-condition-false (see instruction.h for the control-flow rule).
  EventBuilder& JumpIfFalse(Label label) {
    fixups_.emplace_back(commands_.size(), label);
    return Emit({Opcode::kJump, 0, 0, 0});
  }
  // Unconditional jump: clears the condition flag first, so the Jump is always taken.
  EventBuilder& JumpAlways(Label label) {
    ClearCondition();
    return JumpIfFalse(label);
  }
  EventBuilder& DeQueueHead(uint8_t dst, uint8_t queue) {
    return Emit({Opcode::kDeQueue, dst, queue, static_cast<uint8_t>(QueueEnd::kHead)});
  }
  EventBuilder& DeQueueTail(uint8_t dst, uint8_t queue) {
    return Emit({Opcode::kDeQueue, dst, queue, static_cast<uint8_t>(QueueEnd::kTail)});
  }
  EventBuilder& EnQueueHead(uint8_t page, uint8_t queue) {
    return Emit({Opcode::kEnQueue, page, queue, static_cast<uint8_t>(QueueEnd::kHead)});
  }
  EventBuilder& EnQueueTail(uint8_t page, uint8_t queue) {
    return Emit({Opcode::kEnQueue, page, queue, static_cast<uint8_t>(QueueEnd::kTail)});
  }
  EventBuilder& Request(uint8_t size_op, uint8_t dest_queue) {
    return Emit({Opcode::kRequest, size_op, dest_queue, 0});
  }
  EventBuilder& Release(uint8_t op) { return Emit({Opcode::kRelease, op, 0, 0}); }
  EventBuilder& Flush(uint8_t page) { return Emit({Opcode::kFlush, page, 0, 0}); }
  EventBuilder& SetBit(uint8_t page, PageBit bit, bool value) {
    return Emit({Opcode::kSet, page, static_cast<uint8_t>(bit),
                 static_cast<uint8_t>(value ? 1 : 0)});
  }
  EventBuilder& Ref(uint8_t page) { return Emit({Opcode::kRef, page, 0, 0}); }
  EventBuilder& Mod(uint8_t page) { return Emit({Opcode::kMod, page, 0, 0}); }
  EventBuilder& Find(uint8_t dst, uint8_t vaddr_op) {
    return Emit({Opcode::kFind, dst, vaddr_op, 0});
  }
  EventBuilder& Activate(uint8_t event) { return Emit({Opcode::kActivate, event, 0, 0}); }
  EventBuilder& Fifo(uint8_t queue, uint8_t dst) { return Emit({Opcode::kFifo, queue, dst, 0}); }
  EventBuilder& Lru(uint8_t queue, uint8_t dst) { return Emit({Opcode::kLru, queue, dst, 0}); }
  EventBuilder& Mru(uint8_t queue, uint8_t dst) { return Emit({Opcode::kMru, queue, dst, 0}); }
  EventBuilder& Migrate(uint8_t page, uint8_t target_id_op) {
    return Emit({Opcode::kMigrate, page, target_id_op, 0});
  }
  EventBuilder& Unlink(uint8_t page) { return Emit({Opcode::kUnlink, page, 0, 0}); }
  EventBuilder& WeightedSelectMin(uint8_t queue, uint8_t dst) {
    return Emit({Opcode::kWeightedSelect, queue, dst, static_cast<uint8_t>(SelectMode::kMin)});
  }
  EventBuilder& WeightedSelectMax(uint8_t queue, uint8_t dst) {
    return Emit({Opcode::kWeightedSelect, queue, dst, static_cast<uint8_t>(SelectMode::kMax)});
  }
  // dst = saturating dot product of the n weights at [base, base+n) with the n features at
  // [base+n, base+2n).
  EventBuilder& SatDotProduct(uint8_t dst, uint8_t base, uint8_t n) {
    return Emit({Opcode::kSatDotProduct, dst, base, n});
  }
  EventBuilder& PageWordLoad(uint8_t page, uint8_t dst) {
    return Emit({Opcode::kPageWord, page, dst, static_cast<uint8_t>(PageWordOp::kLoad)});
  }
  EventBuilder& PageWordStore(uint8_t page, uint8_t src) {
    return Emit({Opcode::kPageWord, page, src, static_cast<uint8_t>(PageWordOp::kStore)});
  }
  EventBuilder& AgeScores(uint8_t queue, uint8_t param, AgeMode mode) {
    return Emit({Opcode::kAgeScores, queue, param, static_cast<uint8_t>(mode)});
  }

  // Resolves labels and returns the command stream.
  std::vector<Instruction> Build() {
    for (const auto& [index, label] : fixups_) {
      auto it = bound_.find(label);
      HIPEC_CHECK_MSG(it != bound_.end(), "unbound label in event program");
      commands_[index].op3 = static_cast<uint8_t>(it->second);
    }
    return commands_;
  }

 private:
  // CC of the next command: commands are 1-based (word 0 is the magic number).
  size_t NextCc() const { return commands_.size() + 1; }

  std::vector<Instruction> commands_;
  std::map<Label, size_t> bound_;
  std::vector<std::pair<size_t, Label>> fixups_;
  Label next_label_ = 0;
};

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_BUILDER_H_
