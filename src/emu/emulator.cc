#include "emu/emulator.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "emu/decoded.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Wrapping arithmetic helpers (avoid signed-overflow UB). */
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

/** One activation record. */
struct Frame
{
    const Function *fn = nullptr;
    std::vector<std::int64_t> ints;
    std::vector<double> floats;
    std::vector<std::uint8_t> preds;

    // Resume point in the caller (meaningless for main's frame).
    const BasicBlock *callerBlock = nullptr;
    std::size_t callerIndex = 0;
    Reg callDest;

    explicit Frame(const Function *function)
        : fn(function),
          ints(static_cast<std::size_t>(function->numIntRegs()), 0),
          floats(static_cast<std::size_t>(function->numFloatRegs()),
                 0.0),
          preds(static_cast<std::size_t>(function->numPredRegs()), 0)
    {}
};

/** The interpreter proper; one instance per run() call. */
class Interp
{
  public:
    Interp(const Program &prog, const std::string &input,
           const EmuOptions &opts)
        : prog_(prog), ctx_(prog, input), opts_(opts)
    {}

    RunResult
    run()
    {
        const Function *mainFn =
            const_cast<Program &>(prog_).function("main");
        panicIf(mainFn == nullptr, "no main function");
        if (!mainFn->params().empty())
            trap(TrapKind::BadProgram, -1,
                 "main must take no parameters");

        frames_.emplace_back(mainFn);
        enterBlock(mainFn->entry());

        while (!done_)
            step();

        RunResult result;
        result.exitValue = exitValue_;
        result.dynInstrs = dynInstrs_;
        result.output = ctx_.output();
        result.memHash = ctx_.memoryHash();
        return result;
    }

  private:
    /**
     * Abort the run with a typed EmuTrap. @p pc is the static id of
     * the faulting instruction (-1 when none is executing); the
     * dynamic step count is recorded automatically.
     */
    template <typename... Args>
    [[noreturn]] void
    trap(TrapKind kind, int pc, Args &&...args)
    {
        throw EmuTrap(
            kind, pc, dynInstrs_,
            detail::formatMessage(std::forward<Args>(args)...));
    }

    Frame &frame() { return frames_.back(); }

    void
    enterBlock(const BasicBlock *bb)
    {
        block_ = bb;
        index_ = 0;
        blockEntry_ = true;
        if (opts_.profile != nullptr) {
            opts_.profile->forFunction(frame().fn->name())
                .addBlockEntry(bb->id());
        }
    }

    std::int64_t
    evalInt(const Operand &op)
    {
        if (op.isImm())
            return op.immValue();
        panicIf(!op.isReg(), "expected int operand");
        Reg reg = op.reg();
        switch (reg.cls()) {
          case RegClass::Int:
            return frame().ints[static_cast<std::size_t>(reg.idx())];
          case RegClass::Pred:
            return frame().preds[static_cast<std::size_t>(reg.idx())];
          case RegClass::Float:
          default:
            panic("float register used as int operand");
        }
    }

    double
    evalFloat(const Operand &op)
    {
        if (op.isFImm())
            return op.fimmValue();
        if (op.isImm())
            return static_cast<double>(op.immValue());
        panicIf(!op.isReg(), "expected float operand");
        Reg reg = op.reg();
        panicIf(reg.cls() != RegClass::Float,
                "non-float register used as float operand");
        return frame().floats[static_cast<std::size_t>(reg.idx())];
    }

    void
    writeInt(Reg reg, std::int64_t value)
    {
        if (reg.cls() == RegClass::Pred) {
            frame().preds[static_cast<std::size_t>(reg.idx())] =
                value != 0;
            return;
        }
        panicIf(reg.cls() != RegClass::Int,
                "writeInt to non-int register");
        frame().ints[static_cast<std::size_t>(reg.idx())] = value;
    }

    void
    writeFloat(Reg reg, double value)
    {
        panicIf(reg.cls() != RegClass::Float,
                "writeFloat to non-float register");
        frame().floats[static_cast<std::size_t>(reg.idx())] = value;
    }

    bool
    predValue(Reg reg)
    {
        panicIf(reg.cls() != RegClass::Pred,
                "guard is not a predicate register");
        return frame().preds[static_cast<std::size_t>(reg.idx())] != 0;
    }

    /** Transfer control to block @p target in the current frame. */
    void
    gotoBlock(BlockId target)
    {
        enterBlock(frame().fn->block(target));
    }

    void
    doReturn(const Instruction &instr)
    {
        bool hasValue = !instr.srcs().empty();
        std::int64_t intValue = 0;
        double floatValue = 0.0;
        bool isFloat = frame().fn->retKind() == RetKind::Float;
        if (hasValue) {
            if (isFloat)
                floatValue = evalFloat(instr.src(0));
            else
                intValue = evalInt(instr.src(0));
        }

        if (frames_.size() == 1) {
            exitValue_ = intValue;
            done_ = true;
            return;
        }

        const BasicBlock *rb = frame().callerBlock;
        std::size_t ri = frame().callerIndex;
        Reg dest = frame().callDest;
        frames_.pop_back();
        block_ = rb;
        index_ = ri;
        blockEntry_ = false;
        if (dest.valid()) {
            if (dest.cls() == RegClass::Float)
                writeFloat(dest, floatValue);
            else
                writeInt(dest, intValue);
        }
    }

    void
    doCall(const Instruction &instr)
    {
        const Function *callee =
            const_cast<Program &>(prog_).function(instr.callee());
        if (callee == nullptr)
            trap(TrapKind::BadControl, instr.id(),
                 "call to unknown function ", instr.callee());
        if (frames_.size() >= 65536)
            trap(TrapKind::StackOverflow, instr.id(),
                 "call stack overflow in emulated program");

        // Evaluate arguments in the caller frame first.
        std::vector<std::int64_t> intArgs;
        std::vector<double> floatArgs;
        const auto &params = callee->params();
        panicIf(params.size() != instr.srcs().size(),
                "call arity mismatch at emulation time");
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (params[i].cls() == RegClass::Float)
                floatArgs.push_back(evalFloat(instr.src(i)));
            else
                intArgs.push_back(evalInt(instr.src(i)));
            // Keep slots aligned by pushing a dummy into the other
            // vector so indexing below stays simple.
            if (params[i].cls() == RegClass::Float)
                intArgs.push_back(0);
            else
                floatArgs.push_back(0.0);
        }

        Frame calleeFrame(callee);
        calleeFrame.callerBlock = block_;
        calleeFrame.callerIndex = index_ + 1;
        calleeFrame.callDest = instr.dest();
        for (std::size_t i = 0; i < params.size(); ++i) {
            Reg param = params[i];
            if (param.cls() == RegClass::Float) {
                calleeFrame.floats[
                    static_cast<std::size_t>(param.idx())] =
                    floatArgs[i];
            } else {
                calleeFrame.ints[
                    static_cast<std::size_t>(param.idx())] =
                    intArgs[i];
            }
        }
        frames_.push_back(std::move(calleeFrame));
        enterBlock(callee->entry());
    }

    void
    execMemory(const Instruction &instr, DynRecord &record)
    {
        std::int64_t addr =
            wrapAdd(evalInt(instr.src(0)), evalInt(instr.src(1)));
        record.hasMemAddr = true;
        record.memAddr = addr;
        int width = (instr.op() == Opcode::LdB ||
                     instr.op() == Opcode::LdBu ||
                     instr.op() == Opcode::StB)
                        ? 1
                        : 8;
        if (!ctx_.validAccess(addr, width)) {
            if (instr.speculative() && instr.isLoad()) {
                // Silent load: suppress the fault, produce 0.
                if (instr.op() == Opcode::FLd)
                    writeFloat(instr.dest(), 0.0);
                else
                    writeInt(instr.dest(), 0);
                return;
            }
            trap(TrapKind::MemFault, instr.id(),
                 "invalid memory access at address ", addr, " by '",
                 instr.toString(), "' in ", frame().fn->name());
        }
        switch (instr.op()) {
          case Opcode::Ld:
            writeInt(instr.dest(), ctx_.loadWord(addr));
            break;
          case Opcode::LdB:
            writeInt(instr.dest(), ctx_.loadByteSigned(addr));
            break;
          case Opcode::LdBu:
            writeInt(instr.dest(), ctx_.loadByteUnsigned(addr));
            break;
          case Opcode::FLd:
            writeFloat(instr.dest(), ctx_.loadDouble(addr));
            break;
          case Opcode::St:
            ctx_.storeWord(addr, evalInt(instr.src(2)));
            break;
          case Opcode::StB:
            ctx_.storeByte(addr, evalInt(instr.src(2)));
            break;
          case Opcode::FSt:
            ctx_.storeDouble(addr, evalFloat(instr.src(2)));
            break;
          default:
            panic("execMemory: bad opcode");
        }
    }

    std::int64_t
    intDivide(const Instruction &instr, bool isRem)
    {
        std::int64_t a = evalInt(instr.src(0));
        std::int64_t b = evalInt(instr.src(1));
        if (b == 0) {
            if (instr.speculative())
                return 0; // silent form.
            trap(TrapKind::DivideByZero, instr.id(),
                 "division by zero in ", frame().fn->name(), ": '",
                 instr.toString(), "'");
        }
        if (a == INT64_MIN && b == -1)
            return isRem ? 0 : INT64_MIN;
        return isRem ? a % b : a / b;
    }

    void
    execPredDefine(const Instruction &instr)
    {
        // Predicate defines are never nullified: Pin participates in
        // the Table 1 semantics (a U-type dest is written 0 when Pin
        // is false).
        bool pin = instr.guarded() ? predValue(instr.guard()) : true;
        bool cmp = evalIntCondition(instr.op(), evalInt(instr.src(0)),
                                    evalInt(instr.src(1)));
        for (const auto &pd : instr.predDests()) {
            auto idx = static_cast<std::size_t>(pd.reg.idx());
            bool old = frame().preds[idx] != 0;
            frame().preds[idx] =
                applyPredType(pd.type, pin, cmp, old);
        }
    }

    void
    step()
    {
        // Fallthrough off the end of the block.
        while (index_ >= block_->instrs().size()) {
            BlockId ft = block_->fallthrough();
            if (ft == invalidBlock)
                trap(TrapKind::BadControl, -1,
                     "control fell off the end of block ",
                     block_->name(), " in ", frame().fn->name());
            gotoBlock(ft);
        }

        const Instruction &instr = block_->instrs()[index_];
        dynInstrs_ += 1;
        if (dynInstrs_ > opts_.maxDynInstrs)
            trap(TrapKind::FuelExhausted, instr.id(),
                 "dynamic instruction budget exceeded (",
                 opts_.maxDynInstrs, ")");

        DynRecord record;
        record.fn = frame().fn;
        record.instr = &instr;
        record.blockEntry = blockEntry_;
        blockEntry_ = false;

        // Guard check. Predicate defines consume their guard as Pin
        // instead of being nullified by it.
        bool nullified = false;
        if (instr.guarded() && !instr.isPredDefine())
            nullified = !predValue(instr.guard());
        record.nullified = nullified;

        bool transferred = false;
        if (!nullified)
            transferred = execute(instr, record);

        if (opts_.profile != nullptr && record.taken &&
            (instr.isCondBranch() || instr.isJump())) {
            opts_.profile->forFunction(record.fn->name())
                .addTaken(instr.id());
        }
        if (opts_.sink != nullptr)
            opts_.sink->onInstr(record);

        if (!transferred)
            index_ += 1;
    }

    /**
     * Execute one non-nullified instruction.
     * @return true when control transferred (PC already updated).
     */
    bool
    execute(const Instruction &instr, DynRecord &record)
    {
        switch (instr.op()) {
          case Opcode::Add:
            writeInt(instr.dest(), wrapAdd(evalInt(instr.src(0)),
                                           evalInt(instr.src(1))));
            return false;
          case Opcode::Sub:
            writeInt(instr.dest(), wrapSub(evalInt(instr.src(0)),
                                           evalInt(instr.src(1))));
            return false;
          case Opcode::Mul:
            writeInt(instr.dest(), wrapMul(evalInt(instr.src(0)),
                                           evalInt(instr.src(1))));
            return false;
          case Opcode::Div:
            writeInt(instr.dest(), intDivide(instr, false));
            return false;
          case Opcode::Rem:
            writeInt(instr.dest(), intDivide(instr, true));
            return false;
          case Opcode::And:
            writeInt(instr.dest(),
                     evalInt(instr.src(0)) & evalInt(instr.src(1)));
            return false;
          case Opcode::Or:
            writeInt(instr.dest(),
                     evalInt(instr.src(0)) | evalInt(instr.src(1)));
            return false;
          case Opcode::Xor:
            writeInt(instr.dest(),
                     evalInt(instr.src(0)) ^ evalInt(instr.src(1)));
            return false;
          case Opcode::AndNot:
            writeInt(instr.dest(),
                     evalInt(instr.src(0)) & ~evalInt(instr.src(1)));
            return false;
          case Opcode::OrNot:
            writeInt(instr.dest(),
                     evalInt(instr.src(0)) | ~evalInt(instr.src(1)));
            return false;
          case Opcode::Shl:
            writeInt(instr.dest(),
                     static_cast<std::int64_t>(
                         static_cast<std::uint64_t>(
                             evalInt(instr.src(0)))
                         << (evalInt(instr.src(1)) & 63)));
            return false;
          case Opcode::Shr:
            writeInt(instr.dest(),
                     static_cast<std::int64_t>(
                         static_cast<std::uint64_t>(
                             evalInt(instr.src(0))) >>
                         (evalInt(instr.src(1)) & 63)));
            return false;
          case Opcode::Sra:
            writeInt(instr.dest(), evalInt(instr.src(0)) >>
                                       (evalInt(instr.src(1)) & 63));
            return false;
          case Opcode::Mov:
            writeInt(instr.dest(), evalInt(instr.src(0)));
            return false;

          case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
          case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
          case Opcode::CmpLtu:
            writeInt(instr.dest(),
                     evalIntCondition(instr.op(),
                                      evalInt(instr.src(0)),
                                      evalInt(instr.src(1)))
                         ? 1
                         : 0);
            return false;

          case Opcode::FAdd:
            writeFloat(instr.dest(), evalFloat(instr.src(0)) +
                                         evalFloat(instr.src(1)));
            return false;
          case Opcode::FSub:
            writeFloat(instr.dest(), evalFloat(instr.src(0)) -
                                         evalFloat(instr.src(1)));
            return false;
          case Opcode::FMul:
            writeFloat(instr.dest(), evalFloat(instr.src(0)) *
                                         evalFloat(instr.src(1)));
            return false;
          case Opcode::FDiv: {
            double b = evalFloat(instr.src(1));
            if (b == 0.0 && !instr.speculative()) {
                trap(TrapKind::DivideByZero, instr.id(),
                     "floating divide by zero in ",
                     frame().fn->name());
            }
            writeFloat(instr.dest(),
                       b == 0.0 ? 0.0 : evalFloat(instr.src(0)) / b);
            return false;
          }
          case Opcode::FMov:
            writeFloat(instr.dest(), evalFloat(instr.src(0)));
            return false;
          case Opcode::CvtIf:
            writeFloat(instr.dest(), static_cast<double>(
                                         evalInt(instr.src(0))));
            return false;
          case Opcode::CvtFi: {
            double v = evalFloat(instr.src(0));
            std::int64_t out = 0;
            if (std::isfinite(v) && v >= -9.2e18 && v <= 9.2e18)
                out = static_cast<std::int64_t>(v);
            writeInt(instr.dest(), out);
            return false;
          }

          case Opcode::FCmpEq: case Opcode::FCmpNe:
          case Opcode::FCmpLt: case Opcode::FCmpLe:
          case Opcode::FCmpGt: case Opcode::FCmpGe:
            writeInt(instr.dest(),
                     evalFloatCondition(instr.op(),
                                        evalFloat(instr.src(0)),
                                        evalFloat(instr.src(1)))
                         ? 1
                         : 0);
            return false;

          case Opcode::Ld: case Opcode::LdB: case Opcode::LdBu:
          case Opcode::FLd: case Opcode::St: case Opcode::StB:
          case Opcode::FSt:
            execMemory(instr, record);
            return false;

          case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
          case Opcode::Ble: case Opcode::Bgt: case Opcode::Bge: {
            bool taken = evalIntCondition(instr.op(),
                                          evalInt(instr.src(0)),
                                          evalInt(instr.src(1)));
            record.taken = taken;
            if (taken) {
                gotoBlock(instr.target());
                return true;
            }
            return false;
          }
          case Opcode::Jump:
            record.taken = true;
            gotoBlock(instr.target());
            return true;
          case Opcode::Call:
            record.taken = true;
            doCall(instr);
            return true;
          case Opcode::Ret:
            record.taken = true;
            doReturn(instr);
            return true;

          case Opcode::GetC:
            writeInt(instr.dest(), ctx_.getChar());
            return false;
          case Opcode::PutC:
            ctx_.putChar(evalInt(instr.src(0)));
            return false;
          case Opcode::ReadBlock: {
            std::int64_t addr = wrapAdd(evalInt(instr.src(0)),
                                        evalInt(instr.src(1)));
            std::int64_t maxLen = evalInt(instr.src(2));
            if (maxLen < 0 ||
                !ctx_.validAccess(
                    addr, static_cast<int>(
                              std::min<std::int64_t>(maxLen, 1)))) {
                trap(TrapKind::MemFault, instr.id(),
                     "readblock with invalid buffer");
            }
            std::int64_t avail = static_cast<std::int64_t>(
                ctx_.inputRemaining());
            std::int64_t count = std::min(maxLen, avail);
            if (!ctx_.validAccess(addr, static_cast<int>(count)))
                trap(TrapKind::MemFault, instr.id(),
                     "readblock past end of memory");
            writeInt(instr.dest(), ctx_.readBlock(addr, maxLen));
            record.hasMemAddr = true;
            record.memAddr = addr;
            return false;
          }

          case Opcode::PredClear:
            for (auto &p : frame().preds)
                p = 0;
            return false;
          case Opcode::PredSet:
            for (auto &p : frame().preds)
                p = 1;
            return false;

          case Opcode::PredEq: case Opcode::PredNe:
          case Opcode::PredLt: case Opcode::PredLe:
          case Opcode::PredGt: case Opcode::PredGe:
          case Opcode::PredLtu:
            execPredDefine(instr);
            return false;

          case Opcode::CMov:
            if (evalInt(instr.src(1)) != 0)
                writeInt(instr.dest(), evalInt(instr.src(0)));
            return false;
          case Opcode::CMovCom:
            if (evalInt(instr.src(1)) == 0)
                writeInt(instr.dest(), evalInt(instr.src(0)));
            return false;
          case Opcode::Select:
            writeInt(instr.dest(), evalInt(instr.src(2)) != 0
                                       ? evalInt(instr.src(0))
                                       : evalInt(instr.src(1)));
            return false;
          case Opcode::FCMov:
            if (evalInt(instr.src(1)) != 0)
                writeFloat(instr.dest(), evalFloat(instr.src(0)));
            return false;
          case Opcode::FCMovCom:
            if (evalInt(instr.src(1)) == 0)
                writeFloat(instr.dest(), evalFloat(instr.src(0)));
            return false;
          case Opcode::FSelect:
            writeFloat(instr.dest(), evalInt(instr.src(2)) != 0
                                         ? evalFloat(instr.src(0))
                                         : evalFloat(instr.src(1)));
            return false;

          case Opcode::Nop:
            return false;
        }
        panic("unhandled opcode in emulator");
    }

    const Program &prog_;
    ExecContext ctx_;
    const EmuOptions &opts_;
    std::vector<Frame> frames_;
    const BasicBlock *block_ = nullptr;
    std::size_t index_ = 0;
    bool blockEntry_ = true;
    bool done_ = false;
    std::int64_t exitValue_ = 0;
    std::uint64_t dynInstrs_ = 0;
};

} // namespace

EmuBackend
parseEmuBackend(const std::string &value)
{
    if (value.empty() || value == "threaded")
        return EmuBackend::Threaded;
    if (value == "interp")
        return EmuBackend::Interp;
    throw FatalError("invalid PREDILP_EMU value '" + value +
                     "' (accepted: threaded, interp; unset or empty "
                     "means threaded)");
}

EmuBackend
defaultEmuBackend()
{
    static const EmuBackend cached =
        parseEmuBackend(EnvConfig::fromEnvironment().emuBackend);
    return cached;
}

const char *
emuBackendName(EmuBackend backend)
{
    return backend == EmuBackend::Interp ? "interp" : "threaded";
}

RunResult
Emulator::run(const std::string &input, const EmuOptions &opts) const
{
    // Generic sinks need the interpreter's per-record callbacks; the
    // threaded engine only knows how to write packed TraceBuffers
    // (capture() routes those through captureDecoded() directly).
    if (opts.backend == EmuBackend::Threaded && opts.sink == nullptr) {
        DecodedProgram decoded(prog_);
        return runDecoded(decoded, input, opts);
    }
    Interp interp(prog_, input, opts);
    return interp.run();
}

} // namespace predilp
