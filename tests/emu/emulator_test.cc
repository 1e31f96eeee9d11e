#include <gtest/gtest.h>

#include "emu/emulator.hh"
#include "support/logging.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"

namespace predilp
{
namespace
{

/** Helper: single-block main returning the value computed by @p gen. */
template <typename Gen>
RunResult
runMain(Gen &&gen, const std::string &input = "")
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    gen(prog, fn, b);
    EXPECT_EQ(verifyProgram(prog), "");
    Emulator emu(prog);
    return emu.run(input);
}

TEST(Emulator, ParseEmuBackendAcceptsOnlyKnownValues)
{
    EXPECT_EQ(parseEmuBackend(""), EmuBackend::Threaded);
    EXPECT_EQ(parseEmuBackend("threaded"), EmuBackend::Threaded);
    EXPECT_EQ(parseEmuBackend("interp"), EmuBackend::Interp);
    for (const char *bad : {"interpreter", "Threaded", "off", " "}) {
        try {
            parseEmuBackend(bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const FatalError &e) {
            const std::string message = e.what();
            EXPECT_NE(message.find(bad), std::string::npos);
            EXPECT_NE(message.find("threaded, interp"),
                      std::string::npos);
        }
    }
}

TEST(Emulator, ArithmeticAndLogic)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg a = fn->newIntReg();
        Reg c = fn->newIntReg();
        b.mov(a, Operand::imm(21));
        b.emit(Opcode::Mul, c, Operand(a), Operand::imm(3));
        b.emit(Opcode::Sub, c, Operand(c), Operand::imm(1));
        b.emit(Opcode::Xor, c, Operand(c), Operand::imm(0xf));
        // 21*3-1 = 62; 62^15 = 49
        b.ret(Operand(c));
    });
    EXPECT_EQ(r.exitValue, 49);
}

TEST(Emulator, AndNotOrNot)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg a = fn->newIntReg();
        Reg c = fn->newIntReg();
        b.mov(a, Operand::imm(0b1100));
        b.emit(Opcode::AndNot, c, Operand(a), Operand::imm(0b1010));
        // 1100 & ~1010 = 0100
        b.emit(Opcode::OrNot, c, Operand(c), Operand::imm(-1));
        // 0100 | ~(-1) = 0100
        b.ret(Operand(c));
    });
    EXPECT_EQ(r.exitValue, 0b0100);
}

TEST(Emulator, ShiftsMaskAmounts)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg a = fn->newIntReg();
        b.mov(a, Operand::imm(-16));
        b.emit(Opcode::Sra, a, Operand(a), Operand::imm(2)); // -4
        b.emit(Opcode::Shl, a, Operand(a), Operand::imm(1)); // -8
        b.ret(Operand(a));
    });
    EXPECT_EQ(r.exitValue, -8);
}

TEST(Emulator, DivByZeroFatalUnlessSpeculative)
{
    EXPECT_THROW(
        runMain([](Program &, Function *fn, IRBuilder &b) {
            Reg a = fn->newIntReg();
            b.emit(Opcode::Div, a, Operand::imm(1), Operand::imm(0));
            b.ret(Operand(a));
        }),
        FatalError);

    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg a = fn->newIntReg();
        auto &div =
            b.emit(Opcode::Div, a, Operand::imm(1), Operand::imm(0));
        div.setSpeculative(true); // silent form returns 0.
        b.ret(Operand(a));
    });
    EXPECT_EQ(r.exitValue, 0);
}

TEST(Emulator, MemoryWordAndByte)
{
    RunResult r = runMain([](Program &prog, Function *fn,
                             IRBuilder &b) {
        std::int64_t addr = prog.allocGlobal("g", 16, 8, false);
        Reg v = fn->newIntReg();
        b.store(Opcode::St, Operand::imm(addr), Operand::imm(0),
                Operand::imm(0x1234));
        b.store(Opcode::StB, Operand::imm(addr), Operand::imm(8),
                Operand::imm(0xff));
        Reg w = fn->newIntReg();
        b.load(Opcode::Ld, w, Operand::imm(addr), Operand::imm(0));
        Reg sb = fn->newIntReg();
        b.load(Opcode::LdB, sb, Operand::imm(addr), Operand::imm(8));
        Reg ub = fn->newIntReg();
        b.load(Opcode::LdBu, ub, Operand::imm(addr),
               Operand::imm(8));
        // 0x1234 + (-1) + 255 = 0x1234 + 254
        b.emit(Opcode::Add, v, Operand(w), Operand(sb));
        b.emit(Opcode::Add, v, Operand(v), Operand(ub));
        b.ret(Operand(v));
    });
    EXPECT_EQ(r.exitValue, 0x1234 + 254);
}

TEST(Emulator, SpeculativeLoadFromBadAddressIsSilent)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg v = fn->newIntReg();
        auto &ld = b.load(Opcode::Ld, v, Operand::imm(-100),
                          Operand::imm(0));
        ld.setSpeculative(true);
        b.ret(Operand(v));
    });
    EXPECT_EQ(r.exitValue, 0);

    EXPECT_THROW(
        runMain([](Program &, Function *fn, IRBuilder &b) {
            Reg v = fn->newIntReg();
            b.load(Opcode::Ld, v, Operand::imm(-100),
                   Operand::imm(0));
            b.ret(Operand(v));
        }),
        FatalError);
}

TEST(Emulator, FloatOpsAndConversions)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg f0 = fn->newFloatReg();
        Reg f1 = fn->newFloatReg();
        Reg i = fn->newIntReg();
        b.fmov(f0, Operand::fimm(1.5));
        b.emit(Opcode::FMul, f1, Operand(f0), Operand::fimm(4.0));
        b.emit(Opcode::FAdd, f1, Operand(f1), Operand::fimm(0.25));
        b.emit(Opcode::CvtFi, i, Operand(f1)); // trunc(6.25) = 6
        b.ret(Operand(i));
    });
    EXPECT_EQ(r.exitValue, 6);
}

TEST(Emulator, GetcPutcStreams)
{
    RunResult r = runMain(
        [](Program &, Function *fn, IRBuilder &b) {
            Reg c = fn->newIntReg();
            b.getc(c);
            b.putc(Operand(c));
            b.getc(c);
            b.putc(Operand(c));
            b.getc(c); // EOF -> -1
            b.ret(Operand(c));
        },
        "hi");
    EXPECT_EQ(r.output, "hi");
    EXPECT_EQ(r.exitValue, -1);
}

TEST(Emulator, GuardedInstructionNullified)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg p = fn->newPredReg();
        Reg a = fn->newIntReg();
        b.mov(a, Operand::imm(10));
        b.predDefine(Opcode::PredEq, PredDest{p, PredType::U},
                     Operand::imm(1), Operand::imm(2)); // p = false
        b.mov(a, Operand::imm(99)).setGuard(p); // nullified
        b.ret(Operand(a));
    });
    EXPECT_EQ(r.exitValue, 10);
}

TEST(Emulator, PredClearAndSet)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg p0 = fn->newPredReg();
        Reg p1 = fn->newPredReg();
        Reg a = fn->newIntReg();
        b.mov(a, Operand::imm(0));
        b.predAll(Opcode::PredSet);
        b.emit(Opcode::Add, a, Operand(a), Operand::imm(1))
            .setGuard(p0);
        b.predAll(Opcode::PredClear);
        b.emit(Opcode::Add, a, Operand(a), Operand::imm(2))
            .setGuard(p1); // nullified
        b.ret(Operand(a));
    });
    EXPECT_EQ(r.exitValue, 1);
}

TEST(Emulator, PredDefineGuardActsAsPinNotNullify)
{
    // A U-type define with a false Pin still writes 0 (Table 1),
    // which is the behavior Figure 1 of the paper relies on.
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg pin = fn->newPredReg();
        Reg p = fn->newPredReg();
        Reg a = fn->newIntReg();
        b.predAll(Opcode::PredSet); // everything true, incl. p.
        b.predDefine(Opcode::PredEq, PredDest{pin, PredType::U},
                     Operand::imm(0), Operand::imm(1)); // pin=false
        b.predDefine(Opcode::PredEq, PredDest{p, PredType::U},
                     Operand::imm(3), Operand::imm(3), pin);
        // pin=0 so p must be set to 0 even though cmp is true.
        b.mov(a, Operand::imm(7)).setGuard(p);
        b.mov(a, Operand::imm(1)).setGuard(pin);
        Reg result = fn->newIntReg();
        b.mov(result, Operand::imm(0));
        b.emit(Opcode::Add, result, Operand(result), Operand::imm(5))
            .setGuard(p); // nullified: p == 0.
        b.ret(Operand(result));
    });
    EXPECT_EQ(r.exitValue, 0);
}

TEST(Emulator, CmovSelectSemantics)
{
    RunResult r = runMain([](Program &, Function *fn, IRBuilder &b) {
        Reg cond = fn->newIntReg();
        Reg a = fn->newIntReg();
        Reg s = fn->newIntReg();
        b.mov(cond, Operand::imm(1));
        b.mov(a, Operand::imm(5));
        b.cmov(Opcode::CMov, a, Operand::imm(6), Operand(cond));
        // a = 6 (cond true)
        b.cmov(Opcode::CMovCom, a, Operand::imm(7), Operand(cond));
        // unchanged (cond true, com form)
        b.select(Opcode::Select, s, Operand::imm(100),
                 Operand::imm(200), Operand::imm(0));
        // s = 200
        Reg out = fn->newIntReg();
        b.emit(Opcode::Add, out, Operand(a), Operand(s));
        b.ret(Operand(out));
    });
    EXPECT_EQ(r.exitValue, 206);
}

TEST(Emulator, CallAndReturnValues)
{
    Program prog;
    Function *add3 = prog.newFunction("add3");
    add3->setRetKind(RetKind::Int);
    Reg x = add3->newIntReg();
    Reg y = add3->newIntReg();
    Reg z = add3->newIntReg();
    add3->addParam(x);
    add3->addParam(y);
    add3->addParam(z);
    {
        IRBuilder b(add3);
        b.startBlock();
        Reg s = add3->newIntReg();
        b.emit(Opcode::Add, s, Operand(x), Operand(y));
        b.emit(Opcode::Add, s, Operand(s), Operand(z));
        b.ret(Operand(s));
    }

    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    {
        IRBuilder b(fn);
        b.startBlock();
        Reg out = fn->newIntReg();
        b.call("add3", out,
               {Operand::imm(1), Operand::imm(2), Operand::imm(3)});
        b.ret(Operand(out));
    }
    ASSERT_EQ(verifyProgram(prog), "");
    Emulator emu(prog);
    EXPECT_EQ(emu.run("").exitValue, 6);
}

TEST(Emulator, RecursionWorks)
{
    // fact(10) via recursion.
    Program prog;
    Function *fact = prog.newFunction("fact");
    fact->setRetKind(RetKind::Int);
    Reg n = fact->newIntReg();
    fact->addParam(n);
    {
        IRBuilder b(fact);
        BasicBlock *entry = b.startBlock();
        BasicBlock *base = fact->newBlock();
        BasicBlock *rec = fact->newBlock();
        b.setBlock(entry);
        b.branch(Opcode::Ble, Operand(n), Operand::imm(1),
                 base->id());
        b.jump(rec->id());
        b.setBlock(base);
        b.ret(Operand::imm(1));
        b.setBlock(rec);
        Reg m = fact->newIntReg();
        Reg sub = fact->newIntReg();
        b.emit(Opcode::Sub, sub, Operand(n), Operand::imm(1));
        b.call("fact", m, {Operand(sub)});
        Reg out = fact->newIntReg();
        b.emit(Opcode::Mul, out, Operand(n), Operand(m));
        b.ret(Operand(out));
    }
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    {
        IRBuilder b(fn);
        b.startBlock();
        Reg out = fn->newIntReg();
        b.call("fact", out, {Operand::imm(10)});
        b.ret(Operand(out));
    }
    ASSERT_EQ(verifyProgram(prog), "");
    Emulator emu(prog);
    EXPECT_EQ(emu.run("").exitValue, 3628800);
}

TEST(Emulator, ProfileCountsBlocksAndTakenBranches)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    BasicBlock *entry = b.startBlock();
    BasicBlock *loop = fn->newBlock();
    BasicBlock *exit = fn->newBlock();
    Reg i = fn->newIntReg();
    b.setBlock(entry);
    b.mov(i, Operand::imm(0));
    b.jump(loop->id());
    b.setBlock(loop);
    b.emit(Opcode::Add, i, Operand(i), Operand::imm(1));
    // Take the id now: the next append may reallocate the block's
    // instruction vector and invalidate the returned reference.
    const int backId = b.branch(Opcode::Blt, Operand(i), Operand::imm(10),
                                loop->id())
                           .id();
    b.jump(exit->id());
    b.setBlock(exit);
    b.ret(Operand(i));

    ProgramProfile profile(prog);
    EmuOptions opts;
    opts.profile = &profile;
    Emulator emu(prog);
    RunResult r = emu.run("", opts);
    EXPECT_EQ(r.exitValue, 10);

    const FunctionProfile *fp = profile.find("main");
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->blockCount(entry->id()), 1u);
    EXPECT_EQ(fp->blockCount(loop->id()), 10u);
    EXPECT_EQ(fp->blockCount(exit->id()), 1u);
    EXPECT_EQ(fp->takenCount(backId), 9u);
}

TEST(Emulator, TraceSinkSeesNullificationAndAddresses)
{
    struct Sink : TraceSink
    {
        int total = 0;
        int nullified = 0;
        int memOps = 0;
        std::int64_t lastAddr = -1;

        void
        onInstr(const DynRecord &rec) override
        {
            total += 1;
            nullified += rec.nullified ? 1 : 0;
            if (rec.hasMemAddr) {
                memOps += 1;
                lastAddr = rec.memAddr;
            }
        }
    } sink;

    Program prog;
    std::int64_t addr = prog.allocGlobal("g", 8, 8, false);
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg p = fn->newPredReg();
    Reg v = fn->newIntReg();
    b.predDefine(Opcode::PredEq, PredDest{p, PredType::U},
                 Operand::imm(0), Operand::imm(1)); // p = 0.
    b.mov(v, Operand::imm(1)).setGuard(p);          // nullified.
    b.store(Opcode::St, Operand::imm(addr), Operand::imm(0),
            Operand::imm(5));
    b.ret(Operand::imm(0));

    EmuOptions opts;
    opts.sink = &sink;
    Emulator emu(prog);
    RunResult r = emu.run("", opts);
    EXPECT_EQ(r.dynInstrs, 4u);
    EXPECT_EQ(sink.total, 4);
    EXPECT_EQ(sink.nullified, 1);
    EXPECT_EQ(sink.memOps, 1);
    EXPECT_EQ(sink.lastAddr, addr);
}

TEST(Emulator, FuelLimitAborts)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    BasicBlock *loop = b.startBlock();
    b.jump(loop->id()); // infinite loop.
    EmuOptions opts;
    opts.maxDynInstrs = 1000;
    Emulator emu(prog);
    EXPECT_THROW(emu.run("", opts), FatalError);
}

/**
 * Figure 1 of the paper, hand-built: the if-converted code of
 *   if (a == 0 || b == 0) j++; else { if (c != 0) k++; else k--; }
 *   i++;
 * Runs the predicated version against all 8 input combinations and
 * checks the source-level semantics.
 */
class Figure1 : public ::testing::TestWithParam<int>
{
};

TEST_P(Figure1, PredicatedCodeMatchesSource)
{
    int bits = GetParam();
    std::int64_t a = bits & 1;
    std::int64_t bv = (bits >> 1) & 1;
    std::int64_t c = (bits >> 2) & 1;

    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();

    Reg ra = fn->newIntReg();
    Reg rb = fn->newIntReg();
    Reg rc = fn->newIntReg();
    Reg rj = fn->newIntReg();
    Reg rk = fn->newIntReg();
    Reg ri = fn->newIntReg();
    b.mov(ra, Operand::imm(a));
    b.mov(rb, Operand::imm(bv));
    b.mov(rc, Operand::imm(c));
    b.mov(rj, Operand::imm(100));
    b.mov(rk, Operand::imm(200));
    b.mov(ri, Operand::imm(300));

    Reg p1 = fn->newPredReg();
    Reg p2 = fn->newPredReg();
    Reg p3 = fn->newPredReg();
    Reg p4 = fn->newPredReg();
    Reg p5 = fn->newPredReg();

    // Figure 1(c), faithfully:
    b.predAll(Opcode::PredClear);
    b.predDefine2(Opcode::PredEq, PredDest{p1, PredType::Or},
                  PredDest{p2, PredType::UBar}, Operand(ra),
                  Operand::imm(0));
    b.predDefine2(Opcode::PredEq, PredDest{p1, PredType::Or},
                  PredDest{p3, PredType::UBar}, Operand(rb),
                  Operand::imm(0), p2);
    b.emit(Opcode::Add, rj, Operand(rj), Operand::imm(1))
        .setGuard(p3);
    b.predDefine2(Opcode::PredNe, PredDest{p4, PredType::U},
                  PredDest{p5, PredType::UBar}, Operand(rc),
                  Operand::imm(0), p1);
    b.emit(Opcode::Add, rk, Operand(rk), Operand::imm(1))
        .setGuard(p4);
    b.emit(Opcode::Sub, rk, Operand(rk), Operand::imm(1))
        .setGuard(p5);
    b.emit(Opcode::Add, ri, Operand(ri), Operand::imm(1));

    // result = j*10000 + k*10 + (i-300)
    Reg out = fn->newIntReg();
    Reg t = fn->newIntReg();
    b.emit(Opcode::Mul, out, Operand(rj), Operand::imm(10000));
    b.emit(Opcode::Mul, t, Operand(rk), Operand::imm(10));
    b.emit(Opcode::Add, out, Operand(out), Operand(t));
    b.emit(Opcode::Add, out, Operand(out), Operand(ri));
    b.emit(Opcode::Sub, out, Operand(out), Operand::imm(300));
    b.ret(Operand(out));

    ASSERT_EQ(verifyProgram(prog), "");
    Emulator emu(prog);
    RunResult r = emu.run("");

    // Reference semantics. NOTE the paper's Figure 1(c) predicate
    // structure: the then-clause of the *inner* if runs under p3
    // (both a==0 and b==0 false ... see paper), j++ under p3 means
    // "a != 0 && b != 0". The outer || controls k via p1.
    std::int64_t j = 100, k = 200, i = 300;
    if (a == 0 || bv == 0) {
        if (c != 0)
            k += 1;
        else
            k -= 1;
    } else {
        j += 1;
    }
    i += 1;
    std::int64_t expected = j * 10000 + k * 10 + (i - 300);
    EXPECT_EQ(r.exitValue, expected);
}

INSTANTIATE_TEST_SUITE_P(AllInputs, Figure1, ::testing::Range(0, 8));

} // namespace
} // namespace predilp
