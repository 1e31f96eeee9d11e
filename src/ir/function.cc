#include "ir/function.hh"

#include <algorithm>

#include "support/logging.hh"

namespace predilp
{

BasicBlock *
Function::newBlock(const std::string &name)
{
    auto id = static_cast<BlockId>(blocks_.size());
    std::string label = name;
    if (label.empty()) {
        label = 'B';
        label += std::to_string(id);
    }
    blocks_.push_back(std::make_unique<BasicBlock>(id, label));
    layout_.push_back(id);
    return blocks_.back().get();
}

BasicBlock *
Function::block(BlockId id)
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= blocks_.size(),
            "bad block id ", id, " in ", name_);
    return blocks_[static_cast<std::size_t>(id)].get();
}

const BasicBlock *
Function::block(BlockId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= blocks_.size(),
            "bad block id ", id, " in ", name_);
    return blocks_[static_cast<std::size_t>(id)].get();
}

BasicBlock *
Function::entry()
{
    panicIf(layout_.empty(), "function ", name_, " has no blocks");
    return block(layout_.front());
}

const BasicBlock *
Function::entry() const
{
    panicIf(layout_.empty(), "function ", name_, " has no blocks");
    return block(layout_.front());
}

void
Function::pruneUnreachable()
{
    if (layout_.empty())
        return;
    std::vector<bool> reachable(blocks_.size(), false);
    std::vector<BlockId> work{layout_.front()};
    reachable[static_cast<std::size_t>(layout_.front())] = true;
    while (!work.empty()) {
        BlockId id = work.back();
        work.pop_back();
        for (BlockId succ : block(id)->successors()) {
            auto s = static_cast<std::size_t>(succ);
            if (!reachable[s]) {
                reachable[s] = true;
                work.push_back(succ);
            }
        }
    }
    layout_.erase(
        std::remove_if(layout_.begin(), layout_.end(),
                       [&](BlockId id) {
                           return !reachable[static_cast<std::size_t>(id)];
                       }),
        layout_.end());
}

Instruction
Function::makeInstr(Opcode op)
{
    Instruction instr(op);
    instr.setId(nextInstrId());
    return instr;
}

std::size_t
Function::instructionCount() const
{
    std::size_t total = 0;
    for (BlockId id : layout_)
        total += block(id)->instrs().size();
    return total;
}

std::unique_ptr<Function>
Function::clone() const
{
    auto copy = std::make_unique<Function>(name_);
    copy->retKind_ = retKind_;
    copy->params_ = params_;
    copy->blocks_.reserve(blocks_.size());
    for (const auto &bb : blocks_)
        copy->blocks_.push_back(std::make_unique<BasicBlock>(*bb));
    copy->layout_ = layout_;
    copy->numIntRegs_ = numIntRegs_;
    copy->numFloatRegs_ = numFloatRegs_;
    copy->numPredRegs_ = numPredRegs_;
    copy->nextInstrId_ = nextInstrId_;
    return copy;
}

} // namespace predilp
