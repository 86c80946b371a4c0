#pragma once
// recover::FaultPlan — deterministic fault injection for the process
// substrate, so recovery is testable and benchable instead of "works on
// my crash".
//
// A plan is evaluated *inside each worker* right before it would execute
// a task: if the plan says die, the worker records a flight event and
// SIGKILLs itself, so from the parent's point of view the failure is
// indistinguishable from a real node loss — the item is genuinely lost
// in flight, the socket EOFs, and the recovery machinery has to earn the
// golden-output parity the tests assert.
//
// Two shapes compose:
//  * kill points — "node N dies when it first sees item K" (several
//    points with the same item model correlated failures). Kill points
//    fire only in a worker's first incarnation, so a respawned node
//    does not re-die on the replayed item and a benchmark measures one
//    clean recovery.
//  * kill rate — every (node, item, stage) draw dies with probability
//    `kill_rate`, hashed from `seed` so a run is reproducible. The
//    incarnation number salts the hash: a replay after a respawn
//    re-rolls instead of deterministically re-dying, so a rate plan
//    converges instead of livelocking a node.
//
// A third, non-fatal shape tests the parent's result-frame checks:
//  * dup points — "node N sends item K's result frame twice". The
//    parent must drop (recovery on) or reject with an attributed error
//    (recovery off) the second copy; counting it would end the stream
//    one item short.
//
// The textual spec ("kill=1@20;kill=2@20;rate=0.01;seed=7") is what
// `gridpipe_cli --inject-fault` parses; to_string round-trips it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gridpipe::recover {

struct FaultPlan {
  /// One (node, item) trigger.
  struct Point {
    std::uint32_t node = 0;
    std::uint64_t item = 0;
    friend bool operator==(const Point&, const Point&) = default;
  };

  std::vector<Point> kills;  ///< die before executing the item (any stage)
  std::vector<Point> dups;   ///< send the item's result frame twice
  double kill_rate = 0.0;  ///< per-task death probability in [0, 1)
  std::uint64_t seed = 1;  ///< hash seed for the rate draws

  bool any() const noexcept {
    return !kills.empty() || !dups.empty() || kill_rate > 0.0;
  }

  /// True when `node` (in its `incarnation`-th life, 0 = original fork)
  /// should die instead of executing `item` at `stage`. Pure function of
  /// its arguments — both sides of a fork agree.
  bool should_die(std::uint32_t node, std::uint64_t item, std::uint32_t stage,
                  std::uint32_t incarnation) const noexcept;

  /// True when `node` should send `item`'s result frame twice (any
  /// incarnation: a duplicate is not a death, so nothing re-arms it).
  bool should_duplicate(std::uint32_t node,
                        std::uint64_t item) const noexcept;

  /// Parses the CLI grammar: ';'- or ','-separated terms, each one of
  ///   kill=NODE@ITEM   a deterministic kill point (repeatable)
  ///   dup=NODE@ITEM    a duplicated result frame (repeatable)
  ///   rate=P           per-task death probability
  ///   seed=S           hash seed for rate draws
  /// Throws std::invalid_argument with a pointed message on bad input.
  static FaultPlan parse(std::string_view spec);

  std::string to_string() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

}  // namespace gridpipe::recover
