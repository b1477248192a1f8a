/**
 * @file
 * EventQueue tests (system/event_queue.hh): the min-tree must pop
 * exactly what a binary heap ordered by (time, core) would pop, under
 * the schedule/step patterns of the event loop.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "system/event_queue.hh"

namespace lacc {
namespace {

using Event = std::pair<Cycle, CoreId>;

/**
 * Drive an EventQueue and a std::priority_queue reference through the
 * same random schedule/step sequence, the way the event loop does:
 * pop, then during the step reschedule the popped core (often at its
 * own popped time), let it block, hand a lock to one blocked core, or
 * release a barrier that wakes every blocked core at once; when all
 * cores are blocked, wake them from outside a step. Times come from a
 * narrow window so equal times on different cores are common, and
 * some cores start idle. @return both pop sequences.
 */
std::pair<std::vector<Event>, std::vector<Event>>
driveQueues(std::uint32_t cores, std::uint64_t seed, std::size_t steps)
{
    Rng rng(seed);
    EventQueue q(cores);
    std::priority_queue<Event, std::vector<Event>, std::greater<>> ref;
    std::vector<CoreId> blocked;
    const auto schedule = [&](CoreId c, Cycle t) {
        q.schedule(c, t);
        ref.emplace(t, c);
    };
    for (std::uint32_t c = 0; c < cores; ++c) {
        if (rng.chance(0.8))
            schedule(static_cast<CoreId>(c), rng.below(4));
        else
            blocked.push_back(static_cast<CoreId>(c)); // starts idle
    }

    std::vector<Event> got, want;
    while (got.size() < steps) {
        if (ref.empty()) {
            EXPECT_TRUE(q.empty());
            const Cycle t = want.empty() ? 0 : want.back().first;
            for (const CoreId b : blocked)
                schedule(b, t + rng.below(3));
            blocked.clear();
            continue;
        }
        EXPECT_FALSE(q.empty());
        got.push_back(q.pop());
        want.push_back(ref.top());
        ref.pop();
        const auto [t, c] = want.back();
        const std::uint64_t action = rng.below(10);
        if (action == 0) {
            blocked.push_back(c); // barrier arrival / lock wait
        } else if (action == 1 && !blocked.empty()) {
            // Barrier release: every waiter wakes in the same step,
            // mostly at one time, and the releasing core continues.
            const Cycle rel = t + rng.below(5);
            for (const CoreId b : blocked)
                schedule(b, rel + (rng.chance(0.7) ? 0 : rng.below(3)));
            blocked.clear();
            schedule(c, rel);
        } else if (action == 2 && !blocked.empty()) {
            // Lock handoff: one waiter wakes, the releaser continues.
            const std::size_t i = rng.below(blocked.size());
            schedule(blocked[i], t + rng.below(3));
            blocked.erase(blocked.begin() + static_cast<long>(i));
            schedule(c, t + rng.below(3));
        } else if (action < 6) {
            schedule(c, t); // rescheduled at its own popped time
        } else {
            schedule(c, t + 1 + rng.below(8));
        }
        q.endStep();
    }
    return {got, want};
}

TEST(EventQueue, PopsInHeapOrderUnderRandomSchedules)
{
    for (const std::uint32_t cores : {1u, 3u, 64u, 256u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(std::to_string(cores) + " cores, seed " +
                         std::to_string(seed));
            const auto [got, want] =
                driveQueues(cores, seed * 1000003 + cores, 20000);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_TRUE(got == want);
        }
    }
}

TEST(EventQueue, EmptyUntilScheduledAndAfterLastStep)
{
    EventQueue q(5);
    EXPECT_TRUE(q.empty());
    q.schedule(4, 7);
    q.schedule(2, 7);
    EXPECT_EQ(q.pop(), (Event{7, 2})); // equal times: lower core first
    q.endStep();                       // core 2 finished
    EXPECT_EQ(q.pop(), (Event{7, 4}));
    q.schedule(4, 7);                  // same key again, same step
    q.endStep();
    EXPECT_EQ(q.pop(), (Event{7, 4}));
    q.endStep();
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace lacc
