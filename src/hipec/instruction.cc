#include "hipec/instruction.h"

#include <array>
#include <sstream>

namespace hipec::core {
namespace {

constexpr std::array<const char*, kOpcodeCount> kNames = {
    "Return", "Arith",   "Comp",    "Logic", "EmptyQ", "InQ",  "Jump",
    "DeQueue", "EnQueue", "Request", "Release", "Flush", "Set",  "Ref",
    "Mod",     "Find",    "Activate", "FIFO",  "LRU",    "MRU",
    "Migrate", "Unlink",  "WeightedSelect", "SatDotProduct", "PageWord",
    "AgeScores",
};

// kOpcodeCount is derived from the enum; a new opcode that is not given a name here would
// otherwise leave a silent nullptr hole in the table.
constexpr bool AllOpcodesNamed() {
  for (const char* name : kNames) {
    if (name == nullptr) {
      return false;
    }
  }
  return true;
}
static_assert(AllOpcodesNamed(), "every Opcode needs an entry in kNames");

}  // namespace

bool IsValidOpcode(uint8_t code) { return code < kOpcodeCount; }

std::optional<std::string> OpcodeName(Opcode op) {
  auto code = static_cast<uint8_t>(op);
  if (!IsValidOpcode(code)) {
    return std::nullopt;
  }
  return std::string(kNames[code]);
}

std::optional<Opcode> OpcodeFromName(const std::string& name) {
  for (int i = 0; i < kOpcodeCount; ++i) {
    if (name == kNames[i]) {
      return static_cast<Opcode>(i);
    }
  }
  return std::nullopt;
}

bool SetsCondition(Opcode op) {
  switch (op) {
    case Opcode::kComp:
    case Opcode::kLogic:
    case Opcode::kEmptyQ:
    case Opcode::kInQ:
    case Opcode::kRef:
    case Opcode::kMod:
    case Opcode::kRequest:
    case Opcode::kRelease:
    case Opcode::kFlush:
    case Opcode::kFind:
    case Opcode::kMigrate:
      return true;
    default:
      return false;
  }
}

std::string Instruction::ToString() const {
  std::ostringstream os;
  auto name = OpcodeName(op);
  if (!name.has_value()) {
    os << "Invalid(0x" << std::hex << static_cast<int>(op) << ")";
    return os.str();
  }
  os << *name;
  auto hex2 = [&os](uint8_t v) {
    os << std::hex << std::uppercase;
    if (v < 16) {
      os << "0";
    }
    os << static_cast<int>(v) << std::dec << std::nouppercase;
  };
  switch (op) {
    case Opcode::kReturn:
    case Opcode::kEmptyQ:
    case Opcode::kRelease:
    case Opcode::kFlush:
    case Opcode::kRef:
    case Opcode::kMod:
    case Opcode::kActivate:
    case Opcode::kUnlink:
      os << " ";
      hex2(op1);
      break;
    case Opcode::kJump:
      os << " -> " << static_cast<int>(op3);
      break;
    default:
      os << " ";
      hex2(op1);
      os << ",";
      hex2(op2);
      if (op3 != 0) {
        os << "," << static_cast<int>(op3);
      }
      break;
  }
  return os.str();
}

}  // namespace hipec::core
