#include "recover/fault.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "util/rng.hpp"

namespace gridpipe::recover {

namespace {

/// One uniform draw in [0, 1) hashed from the tuple identifying a task
/// execution attempt. splitmix64 over the mixed-in fields keeps the
/// draw independent per field without carrying generator state.
double hashed_uniform(std::uint64_t seed, std::uint32_t node,
                      std::uint64_t item, std::uint32_t stage,
                      std::uint32_t incarnation) noexcept {
  std::uint64_t state = seed;
  (void)util::splitmix64(state);
  state ^= 0x632BE59BD9B4E019ULL * (node + 1);
  (void)util::splitmix64(state);
  state ^= 0x9E3779B97F4A7C15ULL * (item + 1);
  (void)util::splitmix64(state);
  state ^= 0xD1B54A32D192ED03ULL * (stage + 1);
  (void)util::splitmix64(state);
  state ^= 0x2545F4914F6CDD1DULL * (incarnation + 1);
  const std::uint64_t bits = util::splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("fault plan: bad " + std::string(what) +
                                " '" + std::string(text) + "'");
  }
  return value;
}

double parse_rate(std::string_view text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(std::string(text), &used);
    if (used != text.size() || value < 0.0 || value >= 1.0) {
      throw std::invalid_argument("");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault plan: rate must be in [0, 1), got '" +
                                std::string(text) + "'");
  }
}

}  // namespace

bool FaultPlan::should_die(std::uint32_t node, std::uint64_t item,
                           std::uint32_t stage,
                           std::uint32_t incarnation) const noexcept {
  if (incarnation == 0) {
    for (const Point& kp : kills) {
      if (kp.node == node && kp.item == item) return true;
    }
  }
  if (kill_rate > 0.0 &&
      hashed_uniform(seed, node, item, stage, incarnation) < kill_rate) {
    return true;
  }
  return false;
}

bool FaultPlan::should_duplicate(std::uint32_t node,
                                 std::uint64_t item) const noexcept {
  for (const Point& dp : dups) {
    if (dp.node == node && dp.item == item) return true;
  }
  return false;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view term = spec.substr(pos, end - pos);
    pos = end + 1;
    if (term.empty()) {
      if (end == spec.size()) break;
      continue;
    }
    const std::size_t eq = term.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("fault plan: term '" + std::string(term) +
                                  "' is not key=value");
    }
    const std::string_view key = term.substr(0, eq);
    const std::string_view value = term.substr(eq + 1);
    if (key == "kill" || key == "dup") {
      const std::size_t at = value.find('@');
      if (at == std::string_view::npos) {
        throw std::invalid_argument("fault plan: " + std::string(key) +
                                    " wants NODE@ITEM, got '" +
                                    std::string(value) + "'");
      }
      Point point;
      point.node = static_cast<std::uint32_t>(
          parse_u64(value.substr(0, at), std::string(key) + " node"));
      point.item = parse_u64(value.substr(at + 1), std::string(key) + " item");
      (key == "kill" ? plan.kills : plan.dups).push_back(point);
    } else if (key == "rate") {
      plan.kill_rate = parse_rate(value);
    } else if (key == "seed") {
      plan.seed = parse_u64(value, "seed");
    } else {
      throw std::invalid_argument("fault plan: unknown key '" +
                                  std::string(key) +
                                  "' (want kill|dup|rate|seed)");
    }
    if (end == spec.size()) break;
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char buf[64];
  const auto append_points = [&](const char* key,
                                 const std::vector<Point>& points) {
    for (const Point& p : points) {
      std::snprintf(buf, sizeof(buf), "%s=%u@%llu", key, p.node,
                    static_cast<unsigned long long>(p.item));
      if (!out.empty()) out += ';';
      out += buf;
    }
  };
  append_points("kill", kills);
  append_points("dup", dups);
  if (kill_rate > 0.0) {
    std::snprintf(buf, sizeof(buf), "rate=%g", kill_rate);
    if (!out.empty()) out += ';';
    out += buf;
  }
  if (seed != 1) {
    std::snprintf(buf, sizeof(buf), "seed=%llu",
                  static_cast<unsigned long long>(seed));
    if (!out.empty()) out += ';';
    out += buf;
  }
  return out;
}

}  // namespace gridpipe::recover
