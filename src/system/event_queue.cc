#include "system/event_queue.hh"

#include "sim/log.hh"

namespace lacc {

EventQueue::EventQueue(std::uint32_t num_cores) : leaves_(1)
{
    if (num_cores == 0 || num_cores > kCoreMask)
        panic("EventQueue: %u cores outside [1, %llu]", num_cores,
              static_cast<unsigned long long>(kCoreMask));
    while (leaves_ < num_cores)
        leaves_ *= 2;
    tree_.assign(2 * leaves_, kIdle);
}

void
EventQueue::schedule(CoreId c, Cycle t)
{
    if (t >> (64 - kCoreBits) != 0)
        panic("core %u scheduled at cycle %llu, beyond the event key's"
              " 48-bit time field", c, static_cast<unsigned long long>(t));
    if (c == stepping_ && !rescheduled_)
        rescheduled_ = true; // the popped core rewrites its own leaf
    else if (tree_[leaves_ + c] != kIdle)
        panic("core %u scheduled while already queued", c);
    setLeaf(c, (t << kCoreBits) | c);
}

} // namespace lacc
