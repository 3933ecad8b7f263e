#include "hipec/jit.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define HIPEC_JIT_HAVE_MMAP 1
#else
#define HIPEC_JIT_HAVE_MMAP 0
#endif

#include "hipec/container.h"
#include "hipec/executor.h"
#include "hipec/frame_manager.h"
#include "hipec/jit_internal.h"
#include "mach/kernel.h"
#include "mach/vm_map.h"
#include "mach/vm_object.h"
#include "sim/stats.h"

namespace hipec::core::jit {

// The emitter has a template per DispatchKind; this fires when someone grows the IR without
// teaching the JIT the new kind (add a case to jit_x86_64.cc or mark it unsupported in
// KindSupported so affected events fall back to the interpreter).
static_assert(kDispatchKindCount == 57,
              "new DispatchKind: add a native template to jit_x86_64.cc (or exclude the kind "
              "in KindSupported) and update this tripwire");

// The emitted code loads these through raw pointers; the bridges and the interpreter go
// through the typed C++ accessors. The probed-offset scheme keeps layout assumptions out,
// but the *widths* are baked into the instruction templates.
static_assert(sizeof(bool) == 1, "condition/modified templates store single bytes");
static_assert(sizeof(std::atomic<bool>) == 1, "the kill-flag template reads a single byte");
// A plain byte mov on x86-64 is a relaxed atomic access, which is all the C++ side uses.
static_assert(sizeof(mach::VmPage::reference) == 1 &&
                  decltype(mach::VmPage::reference)::is_always_lock_free,
              "the RefBit/SetReference templates access VmPage::reference as one plain byte");
static_assert(sizeof(std::atomic<mach::PageQueue*>) == sizeof(void*),
              "the InQ template reads VmPage::queue as one plain pointer load");
static_assert(sizeof(size_t) == 8, "queue-count templates do 64-bit loads");
// The inlined EnQueue/DeQueue templates store VmPage::queue with a plain 64-bit mov, which
// on x86-64 is exactly the release store the C++ methods perform; the link and bookkeeping
// fields are plain 64-bit members.
static_assert(sizeof(mach::VmPage*) == 8 && sizeof(sim::Nanos) == 8 && sizeof(void*) == 8,
              "queue-splice templates do 64-bit loads and stores");

// Activate re-enters the policy through the executor's private JIT entry point, and the
// bridges reach the frame manager / kernel context through the executor instead of carrying
// them in every JitFrame; this is the one struct that needs friend access.
struct ExecutorAccess {
  static void Activate(PolicyExecutor* ex, Container* c, int event, int depth,
                       int64_t* budget) {
    ex->RunEventJit(c, event, depth, budget);
  }
  static GlobalFrameManager* Manager(PolicyExecutor* ex) { return ex->manager_; }
  static const mach::KernelContext& Kctx(PolicyExecutor* ex) { return ex->kernel_->ctx(); }
};

namespace {
// Test-only mask of "unsupported" kinds (see SetUnsupportedKindForTesting).
bool g_kind_masked[kDispatchKindCount] = {};
}  // namespace

namespace internal {

bool KindMasked(DispatchKind kind) { return g_kind_masked[static_cast<uint8_t>(kind)]; }

const HostOffsets& Offsets() {
  static const HostOffsets offsets = [] {
    auto delta = [](const void* base, const void* member) {
      return static_cast<uint32_t>(static_cast<const char*>(member) -
                                   static_cast<const char*>(base));
    };
    HostOffsets o{};
    static JitFrame f;
    o.f_slots = delta(&f, &f.slots);
    o.f_budget = delta(&f, &f.budget);
    o.f_condition = delta(&f, &f.condition);
    o.f_kill = delta(&f, &f.kill);
    o.f_now = delta(&f, &f.now_addr);
    o.f_horizon = delta(&f, &f.horizon);
    o.f_trace = delta(&f, &f.trace);
    o.f_container = delta(&f, &f.container);
    o.f_return_operand = delta(&f, &f.return_operand);
    o.f_error_msg = delta(&f, &f.error_msg);
    o.f_error_operand = delta(&f, &f.error_operand);
    o.f_trap_index = delta(&f, &f.trap_index);
    static OperandEntry ops[2];
    o.op_size = delta(&ops[0], &ops[1]);
    o.op_int = delta(&ops[0], &ops[0].int_value);
    o.op_page = delta(&ops[0], &ops[0].page);
    o.op_queue = delta(&ops[0], &ops[0].queue);
    static mach::PageQueue q("hipec_jit_offset_probe");
    o.q_count = delta(&q, q.count_addr());
    o.q_head = delta(&q, q.head_storage());
    o.q_tail = delta(&q, q.tail_storage());
    static mach::VmPage pg;
    o.pg_queue = delta(&pg, &pg.queue);
    o.pg_reference = delta(&pg, &pg.reference);
    o.pg_modified = delta(&pg, &pg.modified);
    o.pg_q_prev = delta(&pg, &pg.q_prev);
    o.pg_q_next = delta(&pg, &pg.q_next);
    o.pg_owner = delta(&pg, &pg.owner);
    o.pg_enqueue_ns = delta(&pg, &pg.enqueue_ns);
    o.pg_user_word = delta(&pg, &pg.user_word);
    return o;
  }();
  return offsets;
}

namespace {

const sim::CounterId kCtrPolicyCommands = sim::InternCounter("executor.policy_commands");

// Replicas of the interpreter's run-time helpers (executor.cc), with identical failure text.
inline int64_t LoadInt(const OperandEntry& e) {
  return e.type == OperandType::kQueueCount ? static_cast<int64_t>(e.queue->count())
                                            : e.int_value;
}

[[noreturn]] void FailOperand(uint8_t index, const char* message) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "operand 0x%x: %s", index, message);
  throw PolicyError(buf);
}

inline mach::VmPage* RequirePage(uint8_t index, const OperandEntry& e) {
  if (e.page == nullptr) [[unlikely]] {
    FailOperand(index, "page variable is empty");
  }
  return e.page;
}

// Every bridge body runs under this wrapper: no exception may unwind into the generated
// code (it has no unwind tables), so everything is captured into JitFrame::pending and
// surfaced as a status. The horizon is refreshed unconditionally — any bridge may have
// advanced the clock or scheduled events.
template <typename Fn>
uint64_t Guarded(JitFrame* f, Fn&& fn) {
  uint64_t r;
  try {
    r = fn();
  } catch (...) {
    f->pending = std::current_exception();
    r = static_cast<uint64_t>(JitStatus::kException);
  }
  f->RefreshHorizon();
  return r;
}

inline uint64_t Ok(bool cond) { return cond ? 1u : 0u; }

// Bridge-side accessors for the context the frame no longer carries.
inline const mach::KernelContext& Kctx(JitFrame* f) {
  return ExecutorAccess::Kctx(f->executor);
}
inline GlobalFrameManager* Manager(JitFrame* f) { return ExecutorAccess::Manager(f->executor); }

}  // namespace

extern "C" uint64_t HipecJitBridgeCharge(JitFrame* f, uint64_t delta_ns, uint64_t,
                                         uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    Kctx(f).Charge(static_cast<sim::Nanos>(delta_ns));
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeTrace(JitFrame* f, uint64_t cc, uint64_t op,
                                        uint64_t cond) {
  return Guarded(f, [&]() -> uint64_t {
    f->trace->push_back(ExecTrace{f->event, static_cast<uint16_t>(cc),
                                  static_cast<uint8_t>(op), cond != 0});
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeActivate(JitFrame* f, uint64_t event, uint64_t, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    ExecutorAccess::Activate(f->executor, f->container, static_cast<int>(event), f->depth + 1,
                             f->budget);
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeDeq(JitFrame* f, uint64_t a, uint64_t b, uint64_t tail) {
  return Guarded(f, [&]() -> uint64_t {
    mach::PageQueue* queue = f->slots[b].queue;
    mach::VmPage* page = tail != 0 ? queue->DequeueTail() : queue->DequeueHead();
    if (page == nullptr) {
      throw PolicyError("DeQueue from an empty queue (guard with EmptyQ or a count)");
    }
    f->slots[a].page = page;
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeEnq(JitFrame* f, uint64_t a, uint64_t b, uint64_t tail) {
  return Guarded(f, [&]() -> uint64_t {
    mach::VmPage* page = RequirePage(static_cast<uint8_t>(a), f->slots[a]);
    if (page->owner != f->container) {
      throw PolicyError("EnQueue of a frame the application does not own");
    }
    if (page->queue != nullptr) {
      throw PolicyError("EnQueue of a page that is already on a queue");
    }
    mach::PageQueue* queue = f->slots[b].queue;
    if (tail != 0) {
      queue->EnqueueTail(page, Kctx(f).now());
    } else {
      queue->EnqueueHead(page, Kctx(f).now());
    }
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeRequest(JitFrame* f, uint64_t a, uint64_t b, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    int64_t n = LoadInt(f->slots[a]);
    if (n < 0) {
      throw PolicyError("Request: negative size");
    }
    return Ok(Manager(f)->RequestFrames(f->container, static_cast<size_t>(n),
                                        f->slots[b].queue));
  });
}

extern "C" uint64_t HipecJitBridgeReleaseQueue(JitFrame* f, uint64_t a, uint64_t, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    mach::VmPage* page = f->slots[a].queue->DequeueHead();
    if (page == nullptr) {
      return 0;
    }
    Manager(f)->ReleaseFrame(f->container, page);
    return 1;
  });
}

extern "C" uint64_t HipecJitBridgeReleasePage(JitFrame* f, uint64_t a, uint64_t, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    OperandEntry& A = f->slots[a];
    mach::VmPage* page = A.page;
    if (page == nullptr) {
      return 0;  // condition stays false, no error — matches kReleasePage
    }
    if (page->owner != f->container) {
      throw PolicyError("Release of a frame the application does not own");
    }
    if (page->queue != nullptr) {
      throw PolicyError("Release of a page still on a queue (DeQueue it first)");
    }
    Manager(f)->ReleaseFrame(f->container, page);
    A.page = nullptr;
    return 1;
  });
}

extern "C" uint64_t HipecJitBridgeFlush(JitFrame* f, uint64_t a, uint64_t, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    OperandEntry& A = f->slots[a];
    mach::VmPage* page = RequirePage(static_cast<uint8_t>(a), A);
    if (page->owner != f->container) {
      throw PolicyError("Flush of a frame the application does not own");
    }
    if (page->queue != nullptr) {
      throw PolicyError("Flush of a page still on a queue (DeQueue it first)");
    }
    A.page = Manager(f)->FlushExchange(f->container, page);
    return 1;
  });
}

extern "C" uint64_t HipecJitBridgeFind(JitFrame* f, uint64_t a, uint64_t b, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    Container* c = f->container;
    auto vaddr = static_cast<uint64_t>(LoadInt(f->slots[b]));
    mach::VmMapEntry* entry = c->task()->map().Lookup(vaddr);
    mach::VmPage* page = nullptr;
    if (entry != nullptr && entry->object == c->object()) {
      page = c->object()->Lookup(entry->OffsetOf(vaddr));
    }
    f->slots[a].page = page;
    return Ok(page != nullptr && page->owner == c);
  });
}

extern "C" uint64_t HipecJitBridgeReplacement(JitFrame* f, uint64_t a, uint64_t b,
                                              uint64_t kind) {
  return Guarded(f, [&]() -> uint64_t {
    // Charge order matches the interpreter: surcharge first, then the empty-queue check.
    Kctx(f).Charge(Kctx(f).costs->complex_command_ns);
    mach::PageQueue* queue = f->slots[a].queue;
    if (queue->empty()) {
      throw PolicyError("replacement-policy command on an empty queue");
    }
    mach::VmPage* victim;
    if (static_cast<DispatchKind>(kind) == DispatchKind::kFifo) {
      // Arrival order: the head is the oldest.
      victim = queue->DequeueHead();
    } else {
      mach::VmPage* best = nullptr;
      if (static_cast<DispatchKind>(kind) == DispatchKind::kLru) {
        queue->ForEach([&](mach::VmPage* p) {
          if (best == nullptr || p->last_reference_ns < best->last_reference_ns) {
            best = p;
          }
          return true;
        });
      } else {
        queue->ForEach([&](mach::VmPage* p) {
          if (best == nullptr || p->last_reference_ns >= best->last_reference_ns) {
            best = p;
          }
          return true;
        });
      }
      queue->Remove(best);
      victim = best;
    }
    f->slots[b].page = victim;
    f->executor->counters().Add(kCtrPolicyCommands);
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeMigrate(JitFrame* f, uint64_t a, uint64_t b, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    OperandEntry& A = f->slots[a];
    mach::VmPage* page = RequirePage(static_cast<uint8_t>(a), A);
    if (page->owner != f->container) {
      throw PolicyError("Migrate of a frame the application does not own");
    }
    if (page->queue != nullptr) {
      throw PolicyError("Migrate of a page still on a queue (DeQueue it first)");
    }
    int64_t target = LoadInt(f->slots[b]);
    bool cond = Manager(f)->MigrateFrame(f->container, page, static_cast<uint64_t>(target));
    if (cond) {
      A.page = nullptr;
    }
    return Ok(cond);
  });
}

extern "C" uint64_t HipecJitBridgeUnlink(JitFrame* f, uint64_t a, uint64_t, uint64_t) {
  return Guarded(f, [&]() -> uint64_t {
    mach::VmPage* page = RequirePage(static_cast<uint8_t>(a), f->slots[a]);
    if (page->owner != f->container) {
      throw PolicyError("Unlink of a frame the application does not own");
    }
    if (page->queue == nullptr) {
      throw PolicyError("Unlink of a page that is not on a queue");
    }
    page->queue.load()->Remove(page);
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeWeightedSelect(JitFrame* f, uint64_t a, uint64_t b,
                                                 uint64_t is_max) {
  return Guarded(f, [&]() -> uint64_t {
    // Charge order matches the interpreter: surcharge first, then the empty-queue check.
    Kctx(f).Charge(Kctx(f).costs->complex_command_ns);
    f->slots[b].page = SelectByWord(f->slots[a].queue, is_max != 0);
    f->executor->counters().Add(kCtrPolicyCommands);
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeAgeScores(JitFrame* f, uint64_t a, uint64_t b,
                                            uint64_t mode) {
  return Guarded(f, [&]() -> uint64_t {
    Kctx(f).Charge(Kctx(f).costs->complex_command_ns);
    AgeScoresQueue(f->slots[a].queue, f->slots, static_cast<uint8_t>(b),
                   static_cast<AgeMode>(mode));
    return 0;
  });
}

extern "C" uint64_t HipecJitBridgeSatDot(JitFrame* f, uint64_t a, uint64_t b, uint64_t n) {
  return Guarded(f, [&]() -> uint64_t {
    f->slots[a].int_value =
        SatDotSlots(f->slots, static_cast<uint8_t>(b), static_cast<int>(n));
    return 0;
  });
}

}  // namespace internal

void JitFrame::RefreshHorizon() {
  sim::VirtualClock* vclock = ExecutorAccess::Kctx(executor).vclock;
  if (vclock == nullptr) {
    return;  // real-threads mode: no charge code is emitted, the horizon is never read
  }
  horizon = vclock->charge_horizon();
}

JitProgram::~JitProgram() {
#if HIPEC_JIT_HAVE_MMAP
  if (buffer_ != nullptr) {
    munmap(buffer_, size_);
  }
#endif
}

bool Available() {
#if defined(__x86_64__) && HIPEC_JIT_HAVE_MMAP
  return true;
#else
  return false;
#endif
}

void SetUnsupportedKindForTesting(DispatchKind kind, bool unsupported) {
  g_kind_masked[static_cast<uint8_t>(kind)] = unsupported;
}

std::unique_ptr<JitProgram> Compile(const DecodedProgram& program,
                                    const OperandArray& operands,
                                    const CompileOptions& options) {
#if defined(__x86_64__) && HIPEC_JIT_HAVE_MMAP
  const size_t n_events = program.events.size();
  std::vector<internal::EventArtifact> artifacts(n_events);
  std::vector<bool> compiled(n_events, false);
  size_t total = 0;
  for (size_t ev = 0; ev < n_events; ++ev) {
    const DecodedEvent& stream = program.events[ev];
    if (!stream.present()) {
      continue;
    }
    if (!internal::EmitEventX86(stream, operands, options, static_cast<int>(ev),
                                &artifacts[ev])) {
      continue;  // a kind is masked out: this event falls back to the interpreter
    }
    compiled[ev] = true;
    total = ((total + 15) & ~size_t{15}) + artifacts[ev].code.size();
  }
  if (total == 0) {
    return nullptr;
  }

  // W^X: fill the buffer read-write, then flip it to read-execute. Never both at once.
  void* buffer = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
  if (buffer == MAP_FAILED) {
    return nullptr;
  }
  std::vector<JitEventCode> events(n_events);
  std::vector<JitFragment> fragments;
  size_t at = 0;
  for (size_t ev = 0; ev < n_events; ++ev) {
    if (!compiled[ev]) {
      continue;
    }
    at = (at + 15) & ~size_t{15};
    internal::EventArtifact& art = artifacts[ev];
    std::memcpy(static_cast<uint8_t*>(buffer) + at, art.code.data(), art.code.size());
    events[ev].code_offset = static_cast<uint32_t>(at);
    events[ev].code_size = static_cast<uint32_t>(art.code.size());
    for (JitFragment frag : art.fragments) {
      frag.offset += static_cast<uint32_t>(at);
      fragments.push_back(frag);
    }
    at += art.code.size();
  }
  if (mprotect(buffer, total, PROT_READ | PROT_EXEC) != 0) {
    munmap(buffer, total);
    return nullptr;
  }
  for (size_t ev = 0; ev < n_events; ++ev) {
    if (compiled[ev]) {
      events[ev].entry = reinterpret_cast<JitEntry>(
          reinterpret_cast<uintptr_t>(buffer) + events[ev].code_offset);
    }
  }
  return std::make_unique<JitProgram>(buffer, total, std::move(events), std::move(fragments));
#else
  (void)program;
  (void)operands;
  (void)options;
  return nullptr;
#endif
}

namespace {

const char* DispatchKindName(DispatchKind kind) {
  static const char* const kNames[kDispatchKindCount] = {
      "Return",         "Jump",           "Activate",       "ArithAdd",
      "ArithSub",       "ArithMul",       "ArithDiv",       "ArithMod",
      "ArithMov",       "ArithLoadImm",   "CompGt",         "CompLt",
      "CompEq",         "CompNe",         "CompGe",         "CompLe",
      "LogicAnd",       "LogicOr",        "LogicXor",       "LogicNot",
      "EmptyQ",         "InQ",            "DeQueueHead",    "DeQueueTail",
      "EnQueueHead",    "EnQueueTail",    "Request",        "ReleaseQueue",
      "ReleasePage",    "Flush",          "SetReference",   "SetModify",
      "RefBit",         "ModBit",         "Find",           "Fifo",
      "Lru",            "Mru",            "Migrate",        "Unlink",
      "WeightedSelectMin", "WeightedSelectMax", "SatDotProduct", "PageWordLoad",
      "PageWordStore",  "AgeScores",
      "FusedCompGtJump", "FusedCompLtJump", "FusedCompEqJump", "FusedCompNeJump",
      "FusedCompGeJump", "FusedCompLeJump", "FusedDeqHeadEnqHead", "FusedDeqHeadEnqTail",
      "FusedLoadImmArith", "TrapError",    "TrapOutside",
  };
  const auto i = static_cast<uint8_t>(kind);
  return i < kDispatchKindCount ? kNames[i] : "?";
}

}  // namespace

std::string DumpJit(const JitProgram& program) {
  std::string out;
  char line[160];
  const uint8_t* base = program.buffer();
  int current_event = -1;
  for (const JitFragment& frag : program.fragments()) {
    if (frag.event != current_event) {
      current_event = frag.event;
      const JitEventCode* code = program.Code(frag.event);
      std::snprintf(line, sizeof(line), "event %d: %u bytes @ +0x%x\n", frag.event,
                    code != nullptr ? code->code_size : 0,
                    code != nullptr ? code->code_offset : 0);
      out += line;
    }
    if (frag.cc == 0xfffe) {
      std::snprintf(line, sizeof(line), "  [+0x%04x] prologue (%u bytes)\n", frag.offset,
                    frag.size);
    } else if (frag.cc == 0xffff) {
      std::snprintf(line, sizeof(line), "  [+0x%04x] exit stubs (%u bytes)\n", frag.offset,
                    frag.size);
    } else {
      std::snprintf(line, sizeof(line), "  [+0x%04x] cc %u %s (%u bytes)\n", frag.offset,
                    frag.cc, DispatchKindName(frag.kind), frag.size);
    }
    out += line;
    for (uint32_t row = 0; row < frag.size; row += 16) {
      std::snprintf(line, sizeof(line), "    %04x:", frag.offset + row);
      out += line;
      for (uint32_t i = row; i < frag.size && i < row + 16; ++i) {
        std::snprintf(line, sizeof(line), " %02x", base[frag.offset + i]);
        out += line;
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace hipec::core::jit
