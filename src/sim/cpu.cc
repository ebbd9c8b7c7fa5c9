/**
 * @file
 * NPE32 interpreter implementation.
 *
 * Two dispatch loops share one set of memory/ALU semantics:
 * runSliceRef() is the per-instruction reference loop (debugger
 * single-step, differential-test oracle); runBlocked<ObsT>() is the
 * production loop, which hoists fetch-bounds, alignment, and budget
 * checks to once per straight-line run and compiles the observer
 * notifications out entirely when no observer is attached.  The two
 * are bit-identical: same RunResult, registers, memory effects,
 * observer event stream (per-run events aside: the recorder's
 * statistics match instead), and faults (type, message, and pc).
 *
 * Who gets which events in the production loop:
 *
 *  - The accounting PacketRecorder alone (the configuration every
 *    real run uses) gets one onRun(slot, n) per straight-line run and
 *    every memory access; no per-instruction event and no pc
 *    bookkeeping.  Its statistics depend only on which slots ran, so
 *    that charges the same as n onInst calls.
 *  - A recorder that keeps the instruction trace or the memory trace
 *    opts out (asRecorder() is null): the instruction trace needs
 *    every address in order, and each traced access records the
 *    ordinal of its instruction, which a per-run event delivered at
 *    the end of the run cannot supply.
 *  - Every other observer — the hot-spot profiler, the pipeline
 *    timer, the micro-architecture model, the NPE32 trace sampler,
 *    and any fan-out over several sinks — gets the generic
 *    per-instruction stream (onInst, onMemAccess, onBranch), exactly
 *    as the reference loop delivers it.
 */

#include "cpu.hh"

#include <type_traits>

#include "common/bitops.hh"
#include "sim/accounting.hh"
#include "sim/memmap.hh"

/**
 * Token-threaded dispatch needs the GNU labels-as-values extension
 * (GCC and Clang).  Elsewhere the no-observer configuration runs the
 * portable switch-based loop instead — same semantics, one shared
 * dispatch branch.
 */
#if defined(__GNUC__) || defined(__clang__)
#define PB_THREADED_DISPATCH 1
#endif

namespace pb::sim
{

using isa::Inst;
using isa::Op;

namespace
{

/** Observer whose events compile to nothing (no-observer loop). */
struct NoObs
{
    void onInst(uint32_t, const Inst &) {}
    void onMemAccess(const MemAccessEvent &) {}
    void onBranch(uint32_t, bool, uint32_t) {}
};

} // namespace

Cpu::Cpu(Memory &mem_) : mem(mem_)
{
    resetRegs();
}

void
Cpu::resetRegs()
{
    for (auto &r : regs)
        r = 0;
    regs[isa::regSp] = layout::stackTop;
}

void
Cpu::loadProgram(const isa::Program &program)
{
    if (program.baseAddr < layout::textBase ||
        program.endAddr() > layout::textBase + layout::textSize) {
        fatal("program [0x%x, 0x%x) does not fit in the text region",
              program.baseAddr, program.endAddr());
    }
    prog = program;
    decoded.clear();
    decoded.reserve(prog.words.size());
    for (size_t i = 0; i < prog.words.size(); i++) {
        uint32_t word = prog.words[i];
        mem.write32(prog.baseAddr + static_cast<uint32_t>(i) * 4, word);
        decoded.push_back(isa::decode(word));
    }

    runLen = straightLineRuns(decoded);
}

std::vector<uint32_t>
straightLineRuns(const std::vector<Inst> &decoded)
{
    // Distance (inclusive) from each slot to the next control-flow
    // instruction or undecodable word, clamped to the program end.
    // Undecodable words terminate a run so the instructions before
    // one execute unchecked and the fault fires exactly where the
    // reference loop fires it.
    std::vector<uint32_t> lens(decoded.size(), 1);
    for (size_t i = decoded.size(); i-- > 0;) {
        if (!isa::isControlFlow(decoded[i].op) &&
            decoded[i].op != Op::INVALID && i + 1 != decoded.size())
            lens[i] = lens[i + 1] + 1;
    }
    return lens;
}

inline uint32_t
Cpu::loadValue(const Inst &inst, uint32_t &addr, uint8_t &size,
               MemRegion &region)
{
    addr = reg(inst.rs) + static_cast<uint32_t>(inst.imm);
    switch (inst.op) {
      case Op::LW:
        size = 4;
        return mem.read32(addr, region);
      case Op::LH:
        size = 2;
        return static_cast<uint32_t>(sext(mem.read16(addr, region), 16));
      case Op::LHU:
        size = 2;
        return mem.read16(addr, region);
      case Op::LB:
        size = 1;
        return static_cast<uint32_t>(sext(mem.read8(addr, region), 8));
      case Op::LBU:
        size = 1;
        return mem.read8(addr, region);
      default:
        throw SimError("load() called for a non-load opcode");
    }
}

inline void
Cpu::storeValue(const Inst &inst, uint32_t &addr, uint8_t &size,
                MemRegion &region)
{
    addr = reg(inst.rs) + static_cast<uint32_t>(inst.imm);
    uint32_t value = reg(inst.rd);
    switch (inst.op) {
      case Op::SW:
        size = 4;
        mem.write32(addr, value, region);
        break;
      case Op::SH:
        size = 2;
        mem.write16(addr, static_cast<uint16_t>(value), region);
        break;
      case Op::SB:
        size = 1;
        mem.write8(addr, static_cast<uint8_t>(value), region);
        break;
      default:
        throw SimError("store() called for a non-store opcode");
    }
}

uint32_t
Cpu::load(const Inst &inst)
{
    uint32_t addr;
    uint8_t size;
    MemRegion region;
    uint32_t value = loadValue(inst, addr, size, region);
    if (obs)
        obs->onMemAccess({addr, size, false, region});
    return value;
}

void
Cpu::store(const Inst &inst)
{
    uint32_t addr;
    uint8_t size;
    MemRegion region;
    storeValue(inst, addr, size, region);
    if (obs)
        obs->onMemAccess({addr, size, true, region});
}

RunResult
Cpu::run(uint32_t entry, uint64_t max_insts)
{
    RunResult result = runSlice(entry, max_insts);
    if (result.hitBudget) {
        throw BudgetError(strprintf(
            "instruction budget (%llu) exhausted at pc=0x%x",
            static_cast<unsigned long long>(max_insts),
            result.nextPc));
    }
    return result;
}

RunResult
Cpu::runSlice(uint32_t entry, uint64_t max_insts)
{
    if (dispatch == DispatchMode::Reference)
        return runSliceRef(entry, max_insts);
    if (recObs && recObs->tracks(prog.baseAddr, decoded.size()))
        return runBlocked(entry, max_insts, recObs);
    if (obs)
        return runBlocked(entry, max_insts, obs);
#ifdef PB_THREADED_DISPATCH
    return runThreadedUntracked(entry, max_insts);
#else
    NoObs none;
    return runBlocked(entry, max_insts, &none);
#endif
}

/**
 * The block-stepped production loop, templated on the concrete
 * observer type (NoObs / PacketRecorder / ExecObserver).  The outer
 * loop performs the fetch-bounds, alignment, and budget checks once
 * per straight-line run — they hold for every instruction of the run:
 * the pc only moves sequentially inside one, runLen never crosses the
 * program end, and the run is clipped to the remaining budget.  The
 * inner loop is free of per-instruction guards: undecodable words are
 * detected at run setup (they can only sit in a run's last slot), and
 * operand reads index the register file directly (regs[regZero] is
 * invariantly 0 because setReg never writes it).
 *
 * Only the generic observer needs the pc per instruction (its onInst
 * events carry it).  The other two stop maintaining it — only
 * control-flow instructions need it, only a run's last slot can hold
 * one, and its address reconstructs from the instruction pointer —
 * and the recorder is charged once per run instead (see the file
 * comment).
 */
template <typename ObsT>
RunResult
Cpu::runBlocked(uint32_t entry, uint64_t max_insts, ObsT *o)
{
    // Per-instruction mode delivers (pc, inst) and branch events,
    // per-run mode one onRun per executed run prefix; all modes
    // deliver each memory access (NoObs drops it).
    constexpr bool kPerInst = std::is_same_v<ObsT, ExecObserver>;
    constexpr bool kPerRun = std::is_same_v<ObsT, PacketRecorder>;

    if (decoded.empty())
        fatal("Cpu::run called with no program loaded");

    const uint32_t base = prog.baseAddr;
    // base is 4-aligned (loadProgram stores the image with write32),
    // so one unsigned offset folds the bounds check (wrap catches
    // pc < base) and carries the alignment bits.
    const uint32_t text_len = prog.endAddr() - base;
    const Inst *const insts = decoded.data();
    const uint32_t *const lens = runLen.data();
    const uint32_t *const r = regs;
    uint32_t pc = entry;
    uint64_t count = 0;
    uint64_t blocks = 0;

    while (true) {
        // Same checks, same order, as the reference loop applies
        // before each instruction.
        const uint32_t pcoff = pc - base;
        if (pcoff >= text_len) {
            throw MemoryError(strprintf(
                "instruction fetch outside program: pc=0x%x", pc));
        }
        if (pcoff & 3) {
            throw AlignmentError(
                strprintf("misaligned instruction fetch: pc=0x%x", pc));
        }
        if (count >= max_insts) {
            lifetimeInsts += count;
            lifetimeBlocks += blocks;
            RunResult result{isa::SysCode::Done, reg(isa::regA1),
                             count};
            result.hitBudget = true;
            result.nextPc = pc;
            return result;
        }

        const uint32_t slot = pcoff / 4;
        uint64_t n = lens[slot];
        if (n > max_insts - count)
            n = max_insts - count; // budget expires mid-run
        blocks++;

        const Inst *const start = insts + slot;
        const Inst *ip = start;
        const Inst *stop = ip + n;
        // An undecodable word can only occupy a run's last slot (it
        // terminates runLen), so hoist its detection out of the inner
        // loop: execute the straight-line prefix, then fault exactly
        // where — and exactly as uncounted/unobserved as — the
        // reference loop does.  A budget-clipped run never ends on
        // one (the clip lands strictly inside the prefix).
        const bool ends_invalid = stop[-1].op == Op::INVALID;
        if (ends_invalid)
            stop--;

        // Pc-elided modes: where a taken control transfer (always the
        // run's last instruction) sent the pc, if anywhere.
        [[maybe_unused]] uint32_t pc_redirect = 0;
        [[maybe_unused]] bool redirected = false;

        try {
            for (; ip != stop; ++ip) {
                const Inst &inst = *ip;
                uint32_t next_pc = 0;
                if constexpr (kPerInst) {
                    o->onInst(pc, inst);
                    next_pc = pc + 4;
                }
                // Address of the current instruction, reconstructed
                // on demand in the pc-elided modes.
                auto ipc = [&] {
                    if constexpr (kPerInst)
                        return pc;
                    else
                        return base +
                               (static_cast<uint32_t>(ip - insts) << 2);
                };
                auto jump = [&](uint32_t target) {
                    if constexpr (kPerInst) {
                        next_pc = target;
                    } else {
                        pc_redirect = target;
                        redirected = true;
                    }
                };
                auto branch = [&](bool taken) {
                    const uint32_t at = ipc();
                    const uint32_t target =
                        at + 4 + static_cast<uint32_t>(inst.imm) * 4;
                    o->onBranch(at, taken, target);
                    if (taken)
                        jump(target);
                };

                const uint32_t rs = r[inst.rs];
                const uint32_t rt = r[inst.rt];
                const uint32_t uimm = static_cast<uint32_t>(inst.imm);

                switch (inst.op) {
                  case Op::ADD:
                    setReg(inst.rd, rs + rt);
                    break;
                  case Op::SUB:
                    setReg(inst.rd, rs - rt);
                    break;
                  case Op::AND:
                    setReg(inst.rd, rs & rt);
                    break;
                  case Op::OR:
                    setReg(inst.rd, rs | rt);
                    break;
                  case Op::XOR:
                    setReg(inst.rd, rs ^ rt);
                    break;
                  case Op::SLL:
                    setReg(inst.rd, rs << (rt & 31));
                    break;
                  case Op::SRL:
                    setReg(inst.rd, rs >> (rt & 31));
                    break;
                  case Op::SRA:
                    setReg(inst.rd,
                           static_cast<uint32_t>(static_cast<int32_t>(rs) >>
                                                 (rt & 31)));
                    break;
                  case Op::MUL:
                    setReg(inst.rd, rs * rt);
                    break;
                  case Op::SLT:
                    setReg(inst.rd, static_cast<int32_t>(rs) <
                                            static_cast<int32_t>(rt)
                                        ? 1
                                        : 0);
                    break;
                  case Op::SLTU:
                    setReg(inst.rd, rs < rt ? 1 : 0);
                    break;

                  case Op::ADDI:
                    setReg(inst.rd, rs + uimm);
                    break;
                  case Op::ANDI:
                    setReg(inst.rd, rs & uimm);
                    break;
                  case Op::ORI:
                    setReg(inst.rd, rs | uimm);
                    break;
                  case Op::XORI:
                    setReg(inst.rd, rs ^ uimm);
                    break;
                  case Op::SLLI:
                    setReg(inst.rd, rs << (uimm & 31));
                    break;
                  case Op::SRLI:
                    setReg(inst.rd, rs >> (uimm & 31));
                    break;
                  case Op::SRAI:
                    setReg(inst.rd,
                           static_cast<uint32_t>(static_cast<int32_t>(rs) >>
                                                 (uimm & 31)));
                    break;
                  case Op::SLTI:
                    setReg(inst.rd,
                           static_cast<int32_t>(rs) < inst.imm ? 1 : 0);
                    break;
                  case Op::SLTIU:
                    setReg(inst.rd, rs < uimm ? 1 : 0);
                    break;
                  case Op::LUI:
                    setReg(inst.rd, uimm << 16);
                    break;

                  case Op::LW: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = mem.read32(addr, region);
                    o->onMemAccess({addr, 4, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LH: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = static_cast<uint32_t>(
                        sext(mem.read16(addr, region), 16));
                    o->onMemAccess({addr, 2, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LHU: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = mem.read16(addr, region);
                    o->onMemAccess({addr, 2, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LB: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = static_cast<uint32_t>(
                        sext(mem.read8(addr, region), 8));
                    o->onMemAccess({addr, 1, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LBU: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = mem.read8(addr, region);
                    o->onMemAccess({addr, 1, false, region});
                    setReg(inst.rd, value);
                    break;
                  }

                  case Op::SW: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    mem.write32(addr, r[inst.rd], region);
                    o->onMemAccess({addr, 4, true, region});
                    break;
                  }
                  case Op::SH: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    mem.write16(addr, static_cast<uint16_t>(r[inst.rd]),
                                region);
                    o->onMemAccess({addr, 2, true, region});
                    break;
                  }
                  case Op::SB: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    mem.write8(addr, static_cast<uint8_t>(r[inst.rd]),
                               region);
                    o->onMemAccess({addr, 1, true, region});
                    break;
                  }

                  case Op::BEQ:
                    branch(rs == rt);
                    break;
                  case Op::BNE:
                    branch(rs != rt);
                    break;
                  case Op::BLT:
                    branch(static_cast<int32_t>(rs) <
                           static_cast<int32_t>(rt));
                    break;
                  case Op::BGE:
                    branch(static_cast<int32_t>(rs) >=
                           static_cast<int32_t>(rt));
                    break;
                  case Op::BLTU:
                    branch(rs < rt);
                    break;
                  case Op::BGEU:
                    branch(rs >= rt);
                    break;

                  case Op::J:
                    jump(ipc() + 4 + uimm * 4);
                    break;
                  case Op::JAL:
                    setReg(isa::regLr, ipc() + 4);
                    jump(ipc() + 4 + uimm * 4);
                    break;
                  case Op::JR:
                    jump(rs);
                    break;
                  case Op::JALR:
                    // rs was read before the link: rd may alias it.
                    setReg(inst.rd, ipc() + 4);
                    jump(rs);
                    break;

                  case Op::SYS: {
                    const uint64_t in_run =
                        static_cast<uint64_t>(ip - start) + 1;
                    if constexpr (kPerRun)
                        o->onRun(slot, static_cast<uint32_t>(in_run));
                    lifetimeInsts += count + in_run;
                    lifetimeBlocks += blocks;
                    return {static_cast<isa::SysCode>(inst.imm),
                            reg(isa::regA1), count + in_run};
                  }

                  case Op::INVALID:
                    // Hoisted to run setup (ends_invalid);
                    // unreachable.
                    throw DecodeError(strprintf(
                        "undecodable instruction word at pc=0x%x",
                        ipc()));
                }

                if constexpr (kPerInst)
                    pc = next_pc;
            }
        } catch (...) {
            // The reference loop charges an instruction before
            // executing it, so the faulting one counts too.
            if constexpr (kPerRun)
                o->onRun(slot, static_cast<uint32_t>(ip - start) + 1);
            throw;
        }
        const uint64_t executed = static_cast<uint64_t>(stop - start);
        if constexpr (kPerRun)
            o->onRun(slot, static_cast<uint32_t>(executed));
        count += executed;
        if constexpr (!kPerInst) {
            pc = redirected
                     ? pc_redirect
                     : base + (static_cast<uint32_t>(stop - insts)
                               << 2);
        }
        if (ends_invalid) {
            // pc advanced through the straight-line prefix and now
            // sits on the undecodable slot.
            throw DecodeError(strprintf(
                "undecodable instruction word at pc=0x%x", pc));
        }
        // Only a run's last instruction can redirect control, so pc
        // now points wherever the terminator (or the budget clip)
        // left it; loop around to re-validate it.
    }
}

#ifdef PB_THREADED_DISPATCH

/**
 * The no-observer block-stepped loop with token-threaded dispatch.
 * Block structure and semantics are identical to runBlocked<NoObs> —
 * same hoisted checks in the same order, same budget clip, same
 * undecodable-word handling, same pc elision — but every opcode body
 * ends in its own computed goto instead of funnelling through one
 * switch.  The indirect branch predictor then keys each prediction on
 * the *current* opcode's dispatch site, which captures opcode-pair
 * correlations a single shared dispatch branch cannot.  This is the
 * dominant remaining per-instruction cost once observer notifications
 * compile out, so only the no-observer configuration takes this path.
 */
RunResult
Cpu::runThreadedUntracked(uint32_t entry, uint64_t max_insts)
{
    if (decoded.empty())
        fatal("Cpu::run called with no program loaded");

    // One dispatch-target slot per opcode byte value 0x00..0x50
    // (Op::SYS); gaps — undefined encodings and Op::INVALID — can
    // never be dispatched (isa::decode maps unknown words to INVALID
    // and INVALID is hoisted out of runs), but point at a defensive
    // fault label anyway.
#define PB_UNDEF &&do_undef,
    static const void *const tbl[0x51] = {
        PB_UNDEF                                          // 0x00
        &&do_add, &&do_sub, &&do_and, &&do_or, &&do_xor,  // 0x01-0x05
        &&do_sll, &&do_srl, &&do_sra, &&do_mul,           // 0x06-0x09
        &&do_slt, &&do_sltu,                              // 0x0a-0x0b
        PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF               // 0x0c-0x0f
        &&do_addi, &&do_andi, &&do_ori, &&do_xori,        // 0x10-0x13
        &&do_slli, &&do_srli, &&do_srai,                  // 0x14-0x16
        &&do_slti, &&do_sltiu, &&do_lui,                  // 0x17-0x19
        PB_UNDEF PB_UNDEF PB_UNDEF                        // 0x1a-0x1c
        PB_UNDEF PB_UNDEF PB_UNDEF                        // 0x1d-0x1f
        &&do_lw, &&do_lh, &&do_lhu, &&do_lb, &&do_lbu,    // 0x20-0x24
        &&do_sw, &&do_sh, &&do_sb,                        // 0x25-0x27
        PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF               // 0x28-0x2b
        PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF               // 0x2c-0x2f
        &&do_beq, &&do_bne, &&do_blt, &&do_bge,           // 0x30-0x33
        &&do_bltu, &&do_bgeu,                             // 0x34-0x35
        PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF      // 0x36-0x3a
        PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF      // 0x3b-0x3f
        &&do_j, &&do_jal, &&do_jr, &&do_jalr,             // 0x40-0x43
        PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF      // 0x44-0x48
        PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF PB_UNDEF      // 0x49-0x4d
        PB_UNDEF PB_UNDEF                                 // 0x4e-0x4f
        &&do_sys,                                         // 0x50
    };
#undef PB_UNDEF

// Advance to the next instruction of the run and dispatch it, or
// close the run out when the straight-line prefix is exhausted.
#define PB_NEXT()                                                     \
    do {                                                              \
        if (++ip == stop)                                             \
            goto block_done;                                          \
        goto *tbl[static_cast<uint8_t>(ip->op)];                      \
    } while (0)

// Address of the instruction `ip` points at (the elided pc).
#define PB_IPC()                                                      \
    (base + (static_cast<uint32_t>(ip - insts) << 2))

    const uint32_t base = prog.baseAddr;
    const uint32_t text_len = prog.endAddr() - base;
    const Inst *const insts = decoded.data();
    const uint32_t *const lens = runLen.data();
    const uint32_t *const r = regs;
    uint32_t pc = entry;
    uint64_t count = 0;
    uint64_t blocks = 0;
    const Inst *blockstart = nullptr;
    const Inst *ip = nullptr;
    const Inst *stop = nullptr;
    bool ends_invalid = false;
    uint32_t pc_redirect = 0;
    bool redirected = false;

next_block:
    {
        // Same checks, same order, as the reference loop applies
        // before each instruction (see runBlocked for the argument
        // that once per run is equivalent).
        const uint32_t pcoff = pc - base;
        if (pcoff >= text_len) {
            throw MemoryError(strprintf(
                "instruction fetch outside program: pc=0x%x", pc));
        }
        if (pcoff & 3) {
            throw AlignmentError(
                strprintf("misaligned instruction fetch: pc=0x%x", pc));
        }
        if (count >= max_insts) {
            lifetimeInsts += count;
            lifetimeBlocks += blocks;
            RunResult result{isa::SysCode::Done, reg(isa::regA1),
                             count};
            result.hitBudget = true;
            result.nextPc = pc;
            return result;
        }

        const uint32_t slot = pcoff / 4;
        uint64_t n = lens[slot];
        if (n > max_insts - count)
            n = max_insts - count; // budget expires mid-run
        blocks++;

        blockstart = insts + slot;
        ip = blockstart;
        stop = ip + n;
        ends_invalid = stop[-1].op == Op::INVALID;
        if (ends_invalid)
            stop--;
    }
    redirected = false;
    if (ip == stop) // the run is a lone undecodable word
        goto block_done;
    goto *tbl[static_cast<uint8_t>(ip->op)];

do_add: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] + r[inst.rt]);
    PB_NEXT();
}
do_sub: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] - r[inst.rt]);
    PB_NEXT();
}
do_and: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] & r[inst.rt]);
    PB_NEXT();
}
do_or: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] | r[inst.rt]);
    PB_NEXT();
}
do_xor: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] ^ r[inst.rt]);
    PB_NEXT();
}
do_sll: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] << (r[inst.rt] & 31));
    PB_NEXT();
}
do_srl: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] >> (r[inst.rt] & 31));
    PB_NEXT();
}
do_sra: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           static_cast<uint32_t>(static_cast<int32_t>(r[inst.rs]) >>
                                 (r[inst.rt] & 31)));
    PB_NEXT();
}
do_mul: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] * r[inst.rt]);
    PB_NEXT();
}
do_slt: {
    const Inst &inst = *ip;
    setReg(inst.rd, static_cast<int32_t>(r[inst.rs]) <
                            static_cast<int32_t>(r[inst.rt])
                        ? 1
                        : 0);
    PB_NEXT();
}
do_sltu: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] < r[inst.rt] ? 1 : 0);
    PB_NEXT();
}

do_addi: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] + static_cast<uint32_t>(inst.imm));
    PB_NEXT();
}
do_andi: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] & static_cast<uint32_t>(inst.imm));
    PB_NEXT();
}
do_ori: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] | static_cast<uint32_t>(inst.imm));
    PB_NEXT();
}
do_xori: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] ^ static_cast<uint32_t>(inst.imm));
    PB_NEXT();
}
do_slli: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] << (inst.imm & 31));
    PB_NEXT();
}
do_srli: {
    const Inst &inst = *ip;
    setReg(inst.rd, r[inst.rs] >> (inst.imm & 31));
    PB_NEXT();
}
do_srai: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           static_cast<uint32_t>(static_cast<int32_t>(r[inst.rs]) >>
                                 (inst.imm & 31)));
    PB_NEXT();
}
do_slti: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           static_cast<int32_t>(r[inst.rs]) < inst.imm ? 1 : 0);
    PB_NEXT();
}
do_sltiu: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           r[inst.rs] < static_cast<uint32_t>(inst.imm) ? 1 : 0);
    PB_NEXT();
}
do_lui: {
    const Inst &inst = *ip;
    setReg(inst.rd, static_cast<uint32_t>(inst.imm) << 16);
    PB_NEXT();
}

do_lw: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           mem.read32(r[inst.rs] + static_cast<uint32_t>(inst.imm)));
    PB_NEXT();
}
do_lh: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           static_cast<uint32_t>(sext(
               mem.read16(r[inst.rs] + static_cast<uint32_t>(inst.imm)),
               16)));
    PB_NEXT();
}
do_lhu: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           mem.read16(r[inst.rs] + static_cast<uint32_t>(inst.imm)));
    PB_NEXT();
}
do_lb: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           static_cast<uint32_t>(sext(
               mem.read8(r[inst.rs] + static_cast<uint32_t>(inst.imm)),
               8)));
    PB_NEXT();
}
do_lbu: {
    const Inst &inst = *ip;
    setReg(inst.rd,
           mem.read8(r[inst.rs] + static_cast<uint32_t>(inst.imm)));
    PB_NEXT();
}

do_sw: {
    const Inst &inst = *ip;
    mem.write32(r[inst.rs] + static_cast<uint32_t>(inst.imm),
                r[inst.rd]);
    PB_NEXT();
}
do_sh: {
    const Inst &inst = *ip;
    mem.write16(r[inst.rs] + static_cast<uint32_t>(inst.imm),
                static_cast<uint16_t>(r[inst.rd]));
    PB_NEXT();
}
do_sb: {
    const Inst &inst = *ip;
    mem.write8(r[inst.rs] + static_cast<uint32_t>(inst.imm),
               static_cast<uint8_t>(r[inst.rd]));
    PB_NEXT();
}

do_beq: {
    const Inst &inst = *ip;
    if (r[inst.rs] == r[inst.rt]) {
        pc_redirect =
            PB_IPC() + 4 + static_cast<uint32_t>(inst.imm) * 4;
        redirected = true;
    }
    PB_NEXT();
}
do_bne: {
    const Inst &inst = *ip;
    if (r[inst.rs] != r[inst.rt]) {
        pc_redirect =
            PB_IPC() + 4 + static_cast<uint32_t>(inst.imm) * 4;
        redirected = true;
    }
    PB_NEXT();
}
do_blt: {
    const Inst &inst = *ip;
    if (static_cast<int32_t>(r[inst.rs]) <
        static_cast<int32_t>(r[inst.rt])) {
        pc_redirect =
            PB_IPC() + 4 + static_cast<uint32_t>(inst.imm) * 4;
        redirected = true;
    }
    PB_NEXT();
}
do_bge: {
    const Inst &inst = *ip;
    if (static_cast<int32_t>(r[inst.rs]) >=
        static_cast<int32_t>(r[inst.rt])) {
        pc_redirect =
            PB_IPC() + 4 + static_cast<uint32_t>(inst.imm) * 4;
        redirected = true;
    }
    PB_NEXT();
}
do_bltu: {
    const Inst &inst = *ip;
    if (r[inst.rs] < r[inst.rt]) {
        pc_redirect =
            PB_IPC() + 4 + static_cast<uint32_t>(inst.imm) * 4;
        redirected = true;
    }
    PB_NEXT();
}
do_bgeu: {
    const Inst &inst = *ip;
    if (r[inst.rs] >= r[inst.rt]) {
        pc_redirect =
            PB_IPC() + 4 + static_cast<uint32_t>(inst.imm) * 4;
        redirected = true;
    }
    PB_NEXT();
}

do_j: {
    const Inst &inst = *ip;
    pc_redirect = PB_IPC() + 4 + static_cast<uint32_t>(inst.imm) * 4;
    redirected = true;
    PB_NEXT();
}
do_jal: {
    const Inst &inst = *ip;
    const uint32_t at = PB_IPC();
    setReg(isa::regLr, at + 4);
    pc_redirect = at + 4 + static_cast<uint32_t>(inst.imm) * 4;
    redirected = true;
    PB_NEXT();
}
do_jr: {
    const Inst &inst = *ip;
    pc_redirect = r[inst.rs];
    redirected = true;
    PB_NEXT();
}
do_jalr: {
    const Inst &inst = *ip;
    // rd may alias rs: the jump target is the pre-link rs value.
    pc_redirect = r[inst.rs];
    redirected = true;
    setReg(inst.rd, PB_IPC() + 4);
    PB_NEXT();
}

do_sys: {
    const Inst &inst = *ip;
    const uint64_t executed =
        count + static_cast<uint64_t>(ip - blockstart) + 1;
    lifetimeInsts += executed;
    lifetimeBlocks += blocks;
    return {static_cast<isa::SysCode>(inst.imm), reg(isa::regA1),
            executed};
}

do_undef:
    // Unreachable: decode() maps every undefined encoding to
    // Op::INVALID, which run setup hoists out of dispatch.
    throw DecodeError(strprintf(
        "undecodable instruction word at pc=0x%x", PB_IPC()));

block_done:
    count += static_cast<uint64_t>(stop - blockstart);
    pc = redirected
             ? pc_redirect
             : base + (static_cast<uint32_t>(stop - insts) << 2);
    if (ends_invalid) {
        // pc advanced through the straight-line prefix and now sits
        // on the undecodable slot.
        throw DecodeError(strprintf(
            "undecodable instruction word at pc=0x%x", pc));
    }
    goto next_block;

#undef PB_NEXT
#undef PB_IPC
}

#endif // PB_THREADED_DISPATCH

RunResult
Cpu::runSliceRef(uint32_t entry, uint64_t max_insts)
{
    if (decoded.empty())
        fatal("Cpu::run called with no program loaded");

    const uint32_t base = prog.baseAddr;
    const uint32_t end = prog.endAddr();
    uint32_t pc = entry;
    uint64_t count = 0;

    while (true) {
        if (pc < base || pc >= end) {
            throw MemoryError(strprintf(
                "instruction fetch outside program: pc=0x%x", pc));
        }
        if (!isAligned(pc, 4)) {
            throw AlignmentError(
                strprintf("misaligned instruction fetch: pc=0x%x", pc));
        }
        if (count >= max_insts) {
            lifetimeInsts += count;
            RunResult result{isa::SysCode::Done, reg(isa::regA1),
                             count};
            result.hitBudget = true;
            result.nextPc = pc;
            return result;
        }

        const Inst &inst = decoded[(pc - base) / 4];
        if (inst.op == Op::INVALID) {
            throw DecodeError(strprintf(
                "undecodable instruction word at pc=0x%x", pc));
        }
        count++;
        if (obs)
            obs->onInst(pc, inst);

        uint32_t next_pc = pc + 4;
        const uint32_t rs = reg(inst.rs);
        const uint32_t rt = reg(inst.rt);
        const uint32_t uimm = static_cast<uint32_t>(inst.imm);

        switch (inst.op) {
          case Op::ADD:
            setReg(inst.rd, rs + rt);
            break;
          case Op::SUB:
            setReg(inst.rd, rs - rt);
            break;
          case Op::AND:
            setReg(inst.rd, rs & rt);
            break;
          case Op::OR:
            setReg(inst.rd, rs | rt);
            break;
          case Op::XOR:
            setReg(inst.rd, rs ^ rt);
            break;
          case Op::SLL:
            setReg(inst.rd, rs << (rt & 31));
            break;
          case Op::SRL:
            setReg(inst.rd, rs >> (rt & 31));
            break;
          case Op::SRA:
            setReg(inst.rd, static_cast<uint32_t>(
                                static_cast<int32_t>(rs) >> (rt & 31)));
            break;
          case Op::MUL:
            setReg(inst.rd, rs * rt);
            break;
          case Op::SLT:
            setReg(inst.rd, static_cast<int32_t>(rs) <
                                    static_cast<int32_t>(rt)
                                ? 1
                                : 0);
            break;
          case Op::SLTU:
            setReg(inst.rd, rs < rt ? 1 : 0);
            break;

          case Op::ADDI:
            setReg(inst.rd, rs + uimm);
            break;
          case Op::ANDI:
            setReg(inst.rd, rs & uimm);
            break;
          case Op::ORI:
            setReg(inst.rd, rs | uimm);
            break;
          case Op::XORI:
            setReg(inst.rd, rs ^ uimm);
            break;
          case Op::SLLI:
            setReg(inst.rd, rs << (uimm & 31));
            break;
          case Op::SRLI:
            setReg(inst.rd, rs >> (uimm & 31));
            break;
          case Op::SRAI:
            setReg(inst.rd, static_cast<uint32_t>(
                                static_cast<int32_t>(rs) >> (uimm & 31)));
            break;
          case Op::SLTI:
            setReg(inst.rd, static_cast<int32_t>(rs) < inst.imm ? 1 : 0);
            break;
          case Op::SLTIU:
            setReg(inst.rd, rs < uimm ? 1 : 0);
            break;
          case Op::LUI:
            setReg(inst.rd, uimm << 16);
            break;

          case Op::LW:
          case Op::LH:
          case Op::LHU:
          case Op::LB:
          case Op::LBU:
            setReg(inst.rd, load(inst));
            break;
          case Op::SW:
          case Op::SH:
          case Op::SB:
            store(inst);
            break;

          case Op::BEQ:
          case Op::BNE:
          case Op::BLT:
          case Op::BGE:
          case Op::BLTU:
          case Op::BGEU: {
            bool taken;
            switch (inst.op) {
              case Op::BEQ:
                taken = rs == rt;
                break;
              case Op::BNE:
                taken = rs != rt;
                break;
              case Op::BLT:
                taken = static_cast<int32_t>(rs) <
                        static_cast<int32_t>(rt);
                break;
              case Op::BGE:
                taken = static_cast<int32_t>(rs) >=
                        static_cast<int32_t>(rt);
                break;
              case Op::BLTU:
                taken = rs < rt;
                break;
              default:
                taken = rs >= rt;
                break;
            }
            uint32_t target = pc + 4 + uimm * 4;
            if (obs)
                obs->onBranch(pc, taken, target);
            if (taken)
                next_pc = target;
            break;
          }

          case Op::J:
            next_pc = pc + 4 + uimm * 4;
            break;
          case Op::JAL:
            setReg(isa::regLr, pc + 4);
            next_pc = pc + 4 + uimm * 4;
            break;
          case Op::JR:
            next_pc = rs;
            break;
          case Op::JALR:
            setReg(inst.rd, pc + 4);
            next_pc = rs;
            break;

          case Op::SYS: {
            lifetimeInsts += count;
            return {static_cast<isa::SysCode>(inst.imm),
                    reg(isa::regA1), count};
          }

          case Op::INVALID:
            throw DecodeError("unreachable: INVALID opcode executed");
        }

        pc = next_pc;
    }
}

} // namespace pb::sim
