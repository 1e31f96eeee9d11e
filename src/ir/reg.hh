/**
 * @file
 * Virtual register identifiers. The machine modeled by the paper has
 * an infinite register file (ISCA'95 §4.1), so registers are simply
 * (class, index) pairs with no allocation step.
 */

#ifndef PREDILP_IR_REG_HH
#define PREDILP_IR_REG_HH

#include <cstdint>
#include <functional>
#include <string>

namespace predilp
{

/** Register classes of the target ISA. */
enum class RegClass : std::uint8_t
{
    Int,   ///< 64-bit integer registers (r0, r1, ...).
    Float, ///< double-precision registers (f0, f1, ...).
    Pred,  ///< 1-bit predicate registers (p0, p1, ...).
};

/**
 * A virtual register: a register class plus an index within that
 * class. Value type, freely copyable. A default-constructed Reg is
 * invalid and means "no register".
 */
class Reg
{
  public:
    /** Construct the invalid register. */
    Reg() = default;

    /** Construct register @p idx of class @p cls. */
    Reg(RegClass cls, int idx) : cls_(cls), idx_(idx) {}

    /** @return true when this names an actual register. */
    bool valid() const { return idx_ >= 0; }

    /** @return the register class; only meaningful when valid(). */
    RegClass cls() const { return cls_; }

    /** @return the index within the class. */
    int idx() const { return idx_; }

    bool
    operator==(const Reg &other) const
    {
        return cls_ == other.cls_ && idx_ == other.idx_;
    }

    bool operator!=(const Reg &other) const { return !(*this == other); }

    bool
    operator<(const Reg &other) const
    {
        if (cls_ != other.cls_)
            return cls_ < other.cls_;
        return idx_ < other.idx_;
    }

    /**
     * @return class and index packed into one word; equal words name
     * the same register (the invalid register included).
     */
    std::uint64_t
    packed() const
    {
        return static_cast<std::uint64_t>(cls_) << 32 |
               static_cast<std::uint32_t>(idx_);
    }

    /** Render as r7 / f3 / p12, or "-" when invalid. */
    std::string toString() const;

  private:
    RegClass cls_ = RegClass::Int;
    int idx_ = -1;
};

/** Convenience constructors. */
inline Reg intReg(int idx) { return Reg(RegClass::Int, idx); }
inline Reg floatReg(int idx) { return Reg(RegClass::Float, idx); }
inline Reg predReg(int idx) { return Reg(RegClass::Pred, idx); }

} // namespace predilp

namespace std
{

template <>
struct hash<predilp::Reg>
{
    size_t
    operator()(const predilp::Reg &r) const noexcept
    {
        return (static_cast<size_t>(r.cls()) << 30) ^
               static_cast<size_t>(r.idx() + 1);
    }
};

} // namespace std

#endif // PREDILP_IR_REG_HH
