#include "fuzz/generator.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/rng.hh"

namespace predilp
{

namespace
{

/** One global or local integer array the program may index. */
struct ArrayInfo
{
    std::string name;
    int size = 0; ///< power of two, so `& (size - 1)` is the mask.
};

/**
 * Grows one random program. All state is derived from the seed's
 * Rng, so the same seed always yields byte-identical source.
 */
class ProgramBuilder
{
  public:
    ProgramBuilder(std::uint64_t seed, const GeneratorOptions &opts)
        : rng_(seed), opts_(opts)
    {}

    std::string
    build()
    {
        emitGlobals();
        const int helpers =
            static_cast<int>(rng_.nextBelow(
                static_cast<std::uint64_t>(opts_.maxHelpers) + 1));
        for (int i = 0; i < helpers; ++i)
            emitHelper(i);
        emitMain();
        return os_.str();
    }

  private:
    // --- naming ---

    std::string
    freshName(const char *prefix)
    {
        return std::string(prefix) + std::to_string(nameCounter_++);
    }

    void
    indent()
    {
        for (int i = 0; i < indent_; ++i)
            os_ << "    ";
    }

    // --- globals ---

    void
    emitGlobals()
    {
        // Fixed input buffer every program reads its input into.
        os_ << "byte ibuf[256];\n";
        os_ << "int ilen = 0;\n";
        arrays_.push_back({"ibuf", 256});

        const int intArrays =
            1 + static_cast<int>(rng_.nextBelow(2));
        for (int i = 0; i < intArrays; ++i) {
            ArrayInfo info;
            info.name = freshName("ga");
            info.size = 16 << rng_.nextBelow(3); // 16/32/64.
            arrays_.push_back(info);
            os_ << "int " << info.name << "[" << info.size << "];\n";
        }
        if (rng_.nextBool(0.5)) {
            ArrayInfo info;
            info.name = freshName("gb");
            info.size = 64 << rng_.nextBelow(2); // 64/128.
            arrays_.push_back(info);
            os_ << "byte " << info.name << "[" << info.size
                << "];\n";
        }

        const int intGlobals =
            2 + static_cast<int>(rng_.nextBelow(3));
        for (int i = 0; i < intGlobals; ++i) {
            std::string name = freshName("g");
            intGlobals_.push_back(name);
            os_ << "int " << name << " = "
                << rng_.nextRange(-99, 99) << ";\n";
        }
        if (opts_.useFloats) {
            std::string name = freshName("fg");
            floatGlobals_.push_back(name);
            os_ << "float " << name << " = " << floatLiteral()
                << ";\n";
        }
        os_ << "\n";
    }

    // --- functions ---

    void
    emitHelper(int index)
    {
        std::string name =
            std::string("h").append(std::to_string(index));
        os_ << "int " << name << "(int a" << index << ", int b"
            << index << ") {\n";
        indent_ = 1;
        // Helpers never call other helpers: a call site inside a
        // loop multiplies the callee's cost by the trip product, so
        // keeping call depth at one bounds the whole program's
        // dynamic cost at (main trips) x (call sites) x (helper
        // cost), comfortably under the oracle's fuel.
        ScopeState scope = enterFunction(
            {std::string("a").append(std::to_string(index)),
             std::string("b").append(std::to_string(index))},
            /*iterBudget=*/32, /*callBudget=*/0);
        const int stmts =
            2 + static_cast<int>(rng_.nextBelow(4));
        for (int i = 0; i < stmts; ++i)
            emitStmt(1);
        indent();
        os_ << "return " << intExpr(opts_.maxExprDepth) << ";\n";
        leaveFunction(scope);
        indent_ = 0;
        os_ << "}\n\n";
        helpers_.push_back(name);
    }

    void
    emitMain()
    {
        os_ << "int main() {\n";
        indent_ = 1;
        ScopeState scope =
            enterFunction({}, /*iterBudget=*/512, /*callBudget=*/6);
        indent();
        os_ << "ilen = readblock(ibuf, 0, 256);\n";
        const int stmts =
            3 + static_cast<int>(rng_.nextBelow(
                    static_cast<std::uint64_t>(opts_.maxTopStmts)));
        for (int i = 0; i < stmts; ++i)
            emitStmt(1);
        emitChecksumEpilogue();
        leaveFunction(scope);
        indent_ = 0;
        os_ << "}\n";
    }

    /**
     * Fold every observable piece of state — globals, arrays, the
     * live locals — into three output bytes and the exit value, so
     * any architectural difference between models surfaces in the
     * oracle's output/exit comparison even before the memory hash.
     */
    void
    emitChecksumEpilogue()
    {
        indent();
        os_ << "int cs = ilen;\n";
        for (const std::string &g : intGlobals_) {
            indent();
            os_ << "cs = cs * 31 + " << g << ";\n";
        }
        for (const std::string &v : intLocals_) {
            indent();
            os_ << "cs = cs * 31 + " << v << ";\n";
        }
        for (const std::string &f : floatLocals_) {
            indent();
            os_ << "cs = cs * 31 + (" << f << " < "
                << floatLiteral() << " ? 1 : 2);\n";
        }
        for (const ArrayInfo &arr : arrays_) {
            std::string idx = freshName("ci");
            indent();
            os_ << "for (int " << idx << " = 0; " << idx << " < "
                << arr.size << "; " << idx << " = " << idx
                << " + 1) { cs = cs * 33 + " << arr.name << "["
                << idx << "]; }\n";
        }
        indent();
        os_ << "putc(cs);\n";
        indent();
        os_ << "putc(cs >> 8);\n";
        indent();
        os_ << "putc(cs >> 16);\n";
        indent();
        os_ << "return cs & 255;\n";
    }

    // --- scope bookkeeping ---

    struct ScopeState
    {
        std::size_t intLocals = 0;
        std::size_t floatLocals = 0;
        std::size_t forbidden = 0;
    };

    ScopeState
    enterFunction(std::vector<std::string> params, int iterBudget,
                  int callBudget)
    {
        ScopeState saved{intLocals_.size(), floatLocals_.size(),
                         forbidden_.size()};
        for (std::string &p : params)
            intLocals_.push_back(std::move(p));
        iterBudget_ = iterBudget;
        callBudget_ = callBudget;
        loopKinds_.clear();
        return saved;
    }

    void
    leaveFunction(const ScopeState &saved)
    {
        intLocals_.resize(saved.intLocals);
        floatLocals_.resize(saved.floatLocals);
        forbidden_.resize(saved.forbidden);
    }

    bool
    isForbidden(const std::string &name) const
    {
        for (const std::string &f : forbidden_) {
            if (f == name)
                return true;
        }
        return false;
    }

    /** A random assignable int variable (local or global). */
    std::string
    assignTarget()
    {
        // Collect candidates each time: scopes shift as statements
        // are emitted, and induction variables are off limits.
        std::vector<const std::string *> candidates;
        for (const std::string &v : intLocals_) {
            if (!isForbidden(v))
                candidates.push_back(&v);
        }
        for (const std::string &g : intGlobals_)
            candidates.push_back(&g);
        return *candidates[rng_.nextBelow(candidates.size())];
    }

    // --- expressions ---

    std::string
    floatLiteral()
    {
        std::ostringstream os;
        os << rng_.nextRange(-9, 9) << '.'
           << rng_.nextBelow(10) << rng_.nextBelow(10);
        return os.str();
    }

    /** A random in-bounds array access, e.g. `ga0[(e) & 63]`. */
    std::string
    arrayAccess(int exprDepth)
    {
        const ArrayInfo &arr =
            arrays_[rng_.nextBelow(arrays_.size())];
        return arr.name + "[(" + intExpr(exprDepth) + ") & " +
               std::to_string(arr.size - 1) + "]";
    }

    std::string
    intLeaf()
    {
        switch (rng_.nextBelow(6)) {
          case 0:
            return std::to_string(rng_.nextRange(-64, 64));
          case 1:
            if (!intLocals_.empty())
                return intLocals_[rng_.nextBelow(
                    intLocals_.size())];
            [[fallthrough]];
          case 2:
            return intGlobals_[rng_.nextBelow(
                intGlobals_.size())];
          case 3:
            return "ilen";
          case 4:
            return arrayAccess(0);
          default:
            return std::to_string(rng_.nextRange(0, 255));
        }
    }

    std::string
    floatExpr(int depth)
    {
        if (depth <= 0 || floatGlobals_.empty()) {
            if (!floatLocals_.empty() && rng_.nextBool(0.5))
                return floatLocals_[rng_.nextBelow(
                    floatLocals_.size())];
            if (!floatGlobals_.empty() && rng_.nextBool(0.5))
                return floatGlobals_[rng_.nextBelow(
                    floatGlobals_.size())];
            return floatLiteral();
        }
        // +, -, * only: float division can trap on a zero
        // denominator, and the generator guarantees fault-freedom.
        static const char *const ops[] = {" + ", " - ", " * "};
        return std::string("(").append(floatExpr(depth - 1)) +
               ops[rng_.nextBelow(3)] + floatExpr(depth - 1) + ")";
    }

    std::string
    comparison(int depth)
    {
        static const char *const ops[] = {" == ", " != ", " < ",
                                          " <= ", " > ", " >= "};
        if (opts_.useFloats && !floatGlobals_.empty() &&
            rng_.nextBool(0.2)) {
            return std::string("(").append(floatExpr(1)) +
                   ops[rng_.nextBelow(6)] + floatExpr(1) + ")";
        }
        return std::string("(").append(intExpr(depth - 1)) +
               ops[rng_.nextBelow(6)] + intExpr(depth - 1) + ")";
    }

    std::string
    condExpr(int depth)
    {
        if (depth > 1 && rng_.nextBool(0.3)) {
            const char *op = rng_.nextBool() ? " && " : " || ";
            return std::string("(").append(comparison(depth - 1)) +
                   op + comparison(depth - 1) + ")";
        }
        return comparison(depth);
    }

    std::string
    intExpr(int depth)
    {
        if (depth <= 0)
            return intLeaf();
        switch (rng_.nextBelow(12)) {
          case 0:
          case 1: {
            static const char *const ops[] = {" + ", " - ", " * "};
            return std::string("(").append(intExpr(depth - 1)) +
                   ops[rng_.nextBelow(3)] + intExpr(depth - 1) +
                   ")";
          }
          case 2: {
            static const char *const ops[] = {" & ", " | ", " ^ "};
            return std::string("(").append(intExpr(depth - 1)) +
                   ops[rng_.nextBelow(3)] + intExpr(depth - 1) +
                   ")";
          }
          case 3: {
            // Shift amounts are masked small to keep the values
            // interesting (the emulator itself accepts any amount).
            const char *op = rng_.nextBool() ? " << " : " >> ";
            return std::string("(").append(intExpr(depth - 1)) + op +
                   "((" + intExpr(depth - 1) + ") & 15))";
          }
          case 4: {
            // Divide/modulo by `(e & 7) + 1`: always in [1, 8], so
            // neither the zero-denominator trap nor the
            // INT_MIN / -1 overflow can fire.
            const char *op = rng_.nextBool() ? " / " : " % ";
            return std::string("(").append(intExpr(depth - 1)) + op +
                   "(((" + intExpr(depth - 1) + ") & 7) + 1))";
          }
          case 5:
            return comparison(depth);
          case 6: {
            static const char *const ops[] = {"-", "~", "!"};
            return std::string(ops[rng_.nextBelow(3)]) + "(" +
                   intExpr(depth - 1) + ")";
          }
          case 7:
            return std::string("(").append(condExpr(depth - 1)) +
                   " ? " + intExpr(depth - 1) + " : " +
                   intExpr(depth - 1) + ")";
          case 8:
            if (!helpers_.empty() && callBudget_ > 0) {
                --callBudget_;
                return helpers_[rng_.nextBelow(helpers_.size())] +
                       "(" + intExpr(depth - 1) + ", " +
                       intExpr(depth - 1) + ")";
            }
            return intLeaf();
          case 9:
            return arrayAccess(depth - 1);
          case 10:
            if (rng_.nextBool(0.3))
                return "getc()";
            return intLeaf();
          default:
            return intLeaf();
        }
    }

    // --- statements ---

    void
    emitStmt(int depth)
    {
        const int roll = static_cast<int>(rng_.nextBelow(10));
        if (depth < opts_.maxDepth) {
            if (roll == 0) {
                emitIf(depth);
                return;
            }
            if (roll == 1 && iterBudget_ > 1) {
                emitLoop(depth);
                return;
            }
        }
        if (roll == 2) {
            indent();
            os_ << arrayAccess(2) << " = "
                << intExpr(opts_.maxExprDepth - 1) << ";\n";
            return;
        }
        if (roll == 3) {
            indent();
            os_ << "putc(" << intExpr(2) << ");\n";
            return;
        }
        if (roll == 4) {
            emitDecl();
            return;
        }
        if (roll == 5 && !loopKinds_.empty()) {
            // Early exits ride inside a conditional so the block
            // never contains statically dead trailing statements.
            // `continue` needs the innermost loop to be a `for`
            // (its continue target is the step block, which keeps
            // the protected induction variable advancing).
            const bool canContinue = loopKinds_.back() == 'f';
            const char *kw =
                canContinue && rng_.nextBool(0.4) ? "continue"
                                                  : "break";
            indent();
            os_ << "if (" << condExpr(2) << ") { " << kw
                << "; }\n";
            return;
        }
        if (roll == 6 && opts_.useFloats &&
            !floatLocals_.empty()) {
            indent();
            os_ << floatLocals_[rng_.nextBelow(
                       floatLocals_.size())]
                << " = " << floatExpr(2) << ";\n";
            return;
        }
        // Default: integer assignment.
        indent();
        static const char *const ops[] = {" = ", " += ", " -= "};
        os_ << assignTarget() << ops[rng_.nextBelow(3)]
            << intExpr(opts_.maxExprDepth) << ";\n";
    }

    void
    emitDecl()
    {
        if (opts_.useFloats && rng_.nextBool(0.25)) {
            std::string name = freshName("f");
            indent();
            os_ << "float " << name << " = " << floatLiteral()
                << ";\n";
            floatLocals_.push_back(name);
            return;
        }
        std::string name = freshName("v");
        indent();
        os_ << "int " << name << " = " << intExpr(2) << ";\n";
        intLocals_.push_back(name);
    }

    void
    emitIf(int depth)
    {
        indent();
        os_ << "if (" << condExpr(3) << ") {\n";
        emitBlock(depth + 1);
        if (rng_.nextBool(0.5)) {
            indent();
            os_ << "} else {\n";
            emitBlock(depth + 1);
        }
        indent();
        os_ << "}\n";
    }

    /**
     * A counted loop whose induction variable the body cannot touch.
     * Three surface forms exercise the frontend's three loop
     * shapes; all share the trip-count budget so nests stay small.
     */
    void
    emitLoop(int depth)
    {
        const int maxTrip =
            std::min(opts_.maxLoopIters, iterBudget_);
        const int trip =
            1 + static_cast<int>(rng_.nextBelow(
                    static_cast<std::uint64_t>(maxTrip)));
        const int savedBudget = iterBudget_;
        iterBudget_ = std::max(1, iterBudget_ / trip);

        std::string idx = freshName("i");
        const int form = static_cast<int>(rng_.nextBelow(4));
        if (form == 0) {
            // while: counter declared outside, stepped as the last
            // statement of the body. `continue` would skip the
            // step, so the loop-kind stack marks it 'w'.
            indent();
            os_ << "int " << idx << " = 0;\n";
            indent();
            os_ << "while (" << idx << " < " << trip << ") {\n";
            loopKinds_.push_back('w');
            emitBlock(depth + 1, idx);
            loopKinds_.pop_back();
            indent();
            os_ << "    " << idx << " = " << idx << " + 1;\n";
            indent();
            os_ << "}\n";
        } else if (form == 1) {
            // do-while: body runs at least once; the counter step
            // is the last body statement, so no `continue` either.
            indent();
            os_ << "int " << idx << " = 0;\n";
            indent();
            os_ << "do {\n";
            loopKinds_.push_back('w');
            emitBlock(depth + 1, idx);
            loopKinds_.pop_back();
            indent();
            os_ << "    " << idx << " = " << idx << " + 1;\n";
            indent();
            os_ << "} while (" << idx << " < " << trip << ");\n";
        } else {
            // for: the step block is the continue target, so
            // `continue` is safe in the body.
            indent();
            os_ << "for (int " << idx << " = 0; " << idx << " < "
                << trip << "; " << idx << " = " << idx
                << " + 1) {\n";
            loopKinds_.push_back('f');
            emitBlock(depth + 1, idx);
            loopKinds_.pop_back();
            indent();
            os_ << "}\n";
        }
        iterBudget_ = savedBudget;
    }

    /** Emit `{` contents with @p protectedVar unassignable. */
    void
    emitBlock(int depth, const std::string &protectedVar = "")
    {
        const std::size_t savedForbidden = forbidden_.size();
        const std::size_t savedInts = intLocals_.size();
        const std::size_t savedFloats = floatLocals_.size();
        if (!protectedVar.empty()) {
            forbidden_.push_back(protectedVar);
            // The counter is readable inside the body.
            intLocals_.push_back(protectedVar);
        }
        ++indent_;
        const int stmts =
            1 + static_cast<int>(rng_.nextBelow(
                    static_cast<std::uint64_t>(
                        opts_.maxBlockStmts)));
        for (int i = 0; i < stmts; ++i)
            emitStmt(depth);
        --indent_;
        forbidden_.resize(savedForbidden);
        intLocals_.resize(savedInts);
        floatLocals_.resize(savedFloats);
    }

    Rng rng_;
    GeneratorOptions opts_;
    std::ostringstream os_;
    int indent_ = 0;
    int nameCounter_ = 0;

    std::vector<ArrayInfo> arrays_;
    std::vector<std::string> intGlobals_;
    std::vector<std::string> floatGlobals_;
    std::vector<std::string> helpers_;

    // Per-function state.
    std::vector<std::string> intLocals_;
    std::vector<std::string> floatLocals_;
    std::vector<std::string> forbidden_;
    std::vector<char> loopKinds_; ///< 'f' = for, 'w' = while-like.
    int iterBudget_ = 512;
    /** Helper call sites per function (0 inside helpers). */
    int callBudget_ = 0;
};

} // namespace

GeneratedProgram
generateProgram(std::uint64_t seed, const GeneratorOptions &opts)
{
    GeneratedProgram result;
    result.seed = seed;

    // Independent stream for the input so program shape and input
    // bytes don't correlate.
    Rng inputRng(seed ^ 0x9e3779b97f4a7c15ull);
    const std::size_t len = inputRng.nextBelow(
        static_cast<std::uint64_t>(opts.maxInputBytes) + 1);
    result.input.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        result.input.push_back(
            static_cast<char>(inputRng.nextBelow(256)));

    ProgramBuilder builder(seed, opts);
    result.source = builder.build();
    return result;
}

} // namespace predilp
