// Checkpoint/restore: framing integrity, bit-exact round-trips, the
// tentpole differential — crashing at ANY checkpoint boundary and restoring
// yields byte-identical alarm logs and metrics versus an uninterrupted run,
// at any --jobs value — and a seeded mutate-and-re-checksum fuzzer for the
// field parser behind the checksum.
#include "moas/stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"
#include "moas/util/rng.h"
#include "moas/util/strings.h"

namespace moas::stream {
namespace {

/// `writer`'s lines as a whole sealed image.
std::string sealed(const CheckpointWriter& writer) {
  std::ostringstream os;
  CheckpointImage image(os);
  image.append(writer);
  image.seal();
  return std::move(os).str();
}

TEST(CheckpointFraming, WriterReaderRoundTrip) {
  CheckpointWriter writer;
  writer.line("alpha 1 2 3");
  writer.line("beta " + double_bits(0.1));

  std::istringstream is(sealed(writer));
  CheckpointReader reader(is);
  EXPECT_EQ(reader.next(), "alpha 1 2 3");
  LineParser parser(reader.next());
  parser.expect("beta");
  EXPECT_EQ(parser.f64(), 0.1);
  EXPECT_TRUE(reader.done());
  EXPECT_THROW(reader.next(), std::invalid_argument);  // logical truncation
}

TEST(CheckpointFraming, ImagesLongerThanTheWriterBufferRoundTrip) {
  // The image hashes and writes a section at a time, and a writer grows
  // its buffer as lines arrive; the reader hashes the whole image at once.
  // A 400 KB image in two sections, one of its lines longer than a
  // writer's first buffer, must still verify and read back intact.
  std::ostringstream os;
  CheckpointImage image(os);
  const std::string wide(100'000, 'x');
  CheckpointWriter first;
  CheckpointWriter second;
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    CheckpointWriter& writer = i < 15'000 ? first : second;
    writer.line("n").u64(i).i64(-static_cast<std::int64_t>(i));
    if (i == 10'000) writer.line(wide);
  }
  image.append(first);
  image.append(second);
  image.seal();

  std::istringstream is(os.str());
  CheckpointReader reader(is);
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    std::uint64_t u = 0;
    std::int64_t n = 0;
    reader.line("n").u64(u).i64(n);
    ASSERT_EQ(u, i);
    ASSERT_EQ(n, -static_cast<std::int64_t>(i));
    if (i == 10'000) {
      ASSERT_EQ(reader.next(), wide);
    }
  }
  EXPECT_TRUE(reader.done());
}

TEST(CheckpointFraming, DoubleBitsAreBitExact) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, -123.456e-30, 0.1 + 0.2,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max()}) {
    const std::string bits = double_bits(v);
    EXPECT_EQ(bits.size(), 16u);
    const double back = double_from_bits(bits);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << bits;
  }
  EXPECT_THROW(double_from_bits("nope"), std::invalid_argument);
}

TEST(CheckpointFraming, DamageIsDetectedBeforeParsing) {
  CheckpointWriter writer;
  writer.line("payload 42");
  const std::string good = sealed(writer);

  {  // flipped payload byte -> checksum mismatch
    std::string bad = good;
    bad[bad.find("42")] = '9';
    std::istringstream is(bad);
    EXPECT_THROW(CheckpointReader reader(is), std::invalid_argument);
  }
  {  // missing trailer (crash mid-write)
    std::string bad = good.substr(0, good.find("checksum"));
    std::istringstream is(bad);
    EXPECT_THROW(CheckpointReader reader(is), std::invalid_argument);
  }
  {  // wrong version header
    std::string bad = good;
    bad.replace(bad.find("v1"), 2, "v2");
    std::istringstream is(bad);
    EXPECT_THROW(CheckpointReader reader(is), std::invalid_argument);
  }
  {  // empty stream
    std::istringstream is("");
    EXPECT_THROW(CheckpointReader reader(is), std::invalid_argument);
  }
}

measure::SyntheticTrace crash_trace() {
  util::Rng rng(41);
  measure::TraceConfig config;
  config.days = 70;
  config.active_start = 10;
  config.active_end = 13;
  config.faults_per_day = 1.0;
  config.include_spike_1998 = false;
  config.include_spike_2001 = false;
  return measure::generate_trace(config, rng);
}

StreamConfig crash_config() {
  StreamConfig config;
  config.shards = 4;
  config.jobs = 2;
  config.flush_margin = 8;
  config.shard.day_capacity = 3;       // some shedding in play
  config.shard.alarm_retention = 32;   // retention in play
  config.shard.evict_idle_days = 10;   // eviction in play
  config.shard.memory_budget_bytes = 16 * 1024;
  return config;
}

chaos::FeedFaultSchedule crash_faults(int days) {
  chaos::FeedFaultConfig config;
  config.seed = 97;
  config.horizon_days = days;
  config.gaps = 1.5;
  config.gap_mean_days = 2.0;
  config.duplicate_prob = 0.01;
  config.reorder_prob = 0.02;
  config.reorder_max_skew = 8;
  config.garble_prob = 0.005;
  return chaos::compile_feed_faults(config);
}

std::string fingerprint(const StreamDetector& d) {
  return d.alarm_log_text() + d.metrics().to_json();
}

/// The payload lines between the version header and the checksum trailer.
std::vector<std::string> payload_lines(const std::string& image) {
  std::vector<std::string> lines = util::split(image, '\n');
  EXPECT_EQ(lines.front(), kCheckpointHeader);
  lines.erase(lines.begin());
  while (!lines.empty() && lines.back().rfind("checksum ", 0) != 0) lines.pop_back();
  lines.pop_back();
  return lines;
}

std::string reseal(const std::vector<std::string>& lines) {
  CheckpointWriter writer;
  for (const auto& line : lines) writer.line(line);
  return sealed(writer);
}

/// Restore `image`; returns an empty string when it succeeded or was
/// rejected with std::invalid_argument, else what went wrong.
std::string restore_outcome(const std::string& image) {
  try {
    std::istringstream is(image);
    (void)StreamDetector::restore_checkpoint(is, crash_config());
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    return std::string("unexpected exception: ") + e.what();
  }
  return {};
}

/// Overwrite token `index` of the first line tagged `tag` and re-seal.
std::string with_token(const std::string& image, const std::string& tag, std::size_t index,
                       const std::string& value) {
  std::vector<std::string> lines = payload_lines(image);
  for (auto& line : lines) {
    std::vector<std::string> tokens = util::split(line, ' ');
    if (tokens.front() != tag) continue;
    EXPECT_LT(index, tokens.size());
    tokens.at(index) = value;
    line = util::join(tokens, " ");
    return reseal(lines);
  }
  ADD_FAILURE() << "no '" << tag << "' line in the image";
  return image;
}

TEST(StreamCheckpoint, MidRunSaveRestoreComparesEqual) {
  const auto trace = crash_trace();
  TraceReplaySource source(trace);
  StreamDetector detector(crash_config());
  for (int i = 0; i < 400; ++i) {
    auto u = source.next();
    ASSERT_TRUE(u.has_value());
    detector.ingest(std::move(*u));
  }

  std::ostringstream os;
  detector.save_checkpoint(os);
  std::istringstream is(os.str());
  StreamDetector restored = StreamDetector::restore_checkpoint(is, crash_config());
  EXPECT_TRUE(restored == detector);
  EXPECT_EQ(restored.consumed(), detector.consumed());
  EXPECT_EQ(restored.last_flushed_day(), detector.last_flushed_day());

  // A re-save of the restored detector is byte-identical: the format is
  // canonical, not merely equivalent.
  std::ostringstream os2;
  restored.save_checkpoint(os2);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(StreamCheckpoint, RestoredLastCheckpointDayIsCompared) {
  // front <consumed> <last_flushed_day> <last_checkpoint_day>: the last
  // checkpoint day decides when the next checkpoint fires, so a detector
  // restored with a different one must not compare equal.
  const auto trace = crash_trace();
  TraceReplaySource source(trace);
  StreamDetector detector(crash_config());
  for (int i = 0; i < 400; ++i) detector.ingest(std::move(*source.next()));
  ASSERT_GE(detector.last_flushed_day(), 0);
  std::ostringstream os;
  detector.save_checkpoint(os);

  std::istringstream is(
      with_token(os.str(), "front", 3, std::to_string(detector.last_flushed_day())));
  StreamDetector restored = StreamDetector::restore_checkpoint(is, crash_config());
  EXPECT_FALSE(restored == detector);
}

TEST(StreamCheckpoint, StructuralConfigMismatchIsRejected) {
  const auto trace = crash_trace();
  TraceReplaySource source(trace);
  StreamDetector detector(crash_config());
  for (int i = 0; i < 50; ++i) detector.ingest(std::move(*source.next()));
  std::ostringstream os;
  detector.save_checkpoint(os);

  StreamConfig wrong = crash_config();
  wrong.shards = 8;
  std::istringstream a(os.str());
  EXPECT_THROW(StreamDetector::restore_checkpoint(a, wrong), std::invalid_argument);

  wrong = crash_config();
  wrong.flush_margin = 16;
  std::istringstream b(os.str());
  EXPECT_THROW(StreamDetector::restore_checkpoint(b, wrong), std::invalid_argument);

  // The conflict TTL is a constant, but the image still records it: an
  // image written under another TTL is refused.
  std::istringstream c(with_token(os.str(), "config", 4, double_bits(5.0)));
  EXPECT_THROW(StreamDetector::restore_checkpoint(c, crash_config()), std::invalid_argument);

  // jobs and checkpoint cadence are runtime choices, not structure.
  StreamConfig runtime = crash_config();
  runtime.jobs = 7;
  runtime.checkpoint_every_days = 1;
  std::istringstream d(os.str());
  StreamDetector restored = StreamDetector::restore_checkpoint(d, runtime);
  EXPECT_TRUE(restored == detector);
}

TEST(StreamCheckpoint, FinishedDetectorRefusesToCheckpoint) {
  const auto trace = crash_trace();
  TraceReplaySource source(trace);
  StreamDetector detector(crash_config());
  detector.run(source);
  std::ostringstream os;
  EXPECT_THROW(detector.save_checkpoint(os), std::invalid_argument);
}

// The tentpole acceptance test: take checkpoints on a cadence during a
// faulted, attacked, churned run; then for EVERY checkpoint taken, pretend
// the process died right after writing it — restore, rebuild the feed chain
// from scratch, fast-forward past the consumed prefix, resume, and demand a
// byte-identical alarm log + metrics manifest. Repeated across --jobs.
TEST(StreamCheckpoint, CrashAtAnyCheckpointBoundaryIsLossless) {
  const auto trace = crash_trace();
  const auto churn = plan_churn(trace, ChurnConfig{.seed = 5, .share = 0.3});
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 13, .attacks = 4}, churn);
  std::vector<OriginOverride> overrides = churn;
  for (const auto& p : plans) overrides.push_back(p.inject);
  const auto faults = crash_faults(trace.days);

  const auto make_feed = [&](TraceReplaySource& source) {
    return FaultyFeed(source, faults);
  };

  // Uninterrupted reference run, capturing every checkpoint image.
  StreamConfig config = crash_config();
  config.checkpoint_every_days = 7;
  std::vector<std::pair<int, std::string>> checkpoints;
  TraceReplaySource ref_source(trace, overrides);
  FaultyFeed ref_feed = make_feed(ref_source);
  StreamDetector reference(config);
  reference.run(ref_feed, [&](const StreamDetector& d, int day) {
    std::ostringstream os;
    d.save_checkpoint(os);
    checkpoints.emplace_back(day, os.str());
  });
  const std::string expected = fingerprint(reference);
  ASSERT_GE(checkpoints.size(), 5u);

  for (const auto& [day, image] : checkpoints) {
    for (const std::size_t jobs : {1u, 2u, 4u}) {
      StreamConfig resume_config = config;
      resume_config.jobs = jobs;
      std::istringstream is(image);
      StreamDetector resumed = StreamDetector::restore_checkpoint(is, resume_config);
      EXPECT_EQ(resumed.last_flushed_day(), day);

      TraceReplaySource source(trace, overrides);
      FaultyFeed feed = make_feed(source);
      fast_forward(feed, resumed.consumed());
      resumed.run(feed);
      ASSERT_EQ(fingerprint(resumed), expected)
          << "diverged after restoring the day-" << day << " checkpoint at jobs=" << jobs;
    }
  }
}

/// Deliver the rest of `feed` one update at a time. After every flushed
/// day, each shard's running byte count must equal its footprint
/// recomputed from scratch. Returns the number of days checked.
int expect_exact_bytes_every_day(StreamDetector& detector, UpdateFeed& feed) {
  int days = 0;
  int seen = detector.last_flushed_day();
  const auto check = [&] {
    for (std::size_t i = 0; i < detector.shards().size(); ++i) {
      const DetectorShard& shard = detector.shards()[i];
      EXPECT_EQ(shard.bytes_held(), shard.recompute_bytes())
          << "shard " << i << " after day " << detector.last_flushed_day();
    }
    days += detector.last_flushed_day() - seen;
    seen = detector.last_flushed_day();
  };
  while (auto u = feed.next()) {
    detector.ingest(std::move(*u));
    if (detector.last_flushed_day() != seen) check();
  }
  detector.flush_all();
  check();
  return days;
}

TEST(StreamCheckpoint, RunningByteCountMatchesTheFootprintEveryDay) {
  // Budget-bound, with feed gaps and a retention cap small enough that the
  // alarm log compacts: every input of the byte model moves.
  const auto trace = crash_trace();
  const auto churn = plan_churn(trace, ChurnConfig{.seed = 5, .share = 0.3});
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 13, .attacks = 4}, churn);
  std::vector<OriginOverride> overrides = churn;
  for (const auto& p : plans) overrides.push_back(p.inject);
  const auto faults = crash_faults(trace.days);
  StreamConfig config = crash_config();
  config.shard.memory_budget_bytes = 4 * 1024;
  config.shard.alarm_retention = 2;

  TraceReplaySource source(trace, overrides);
  FaultyFeed feed(source, faults);
  StreamDetector detector(config);
  EXPECT_EQ(expect_exact_bytes_every_day(detector, feed), trace.days);
  const auto metrics = detector.metrics();
  EXPECT_GT(metrics.counter("stream.evicted_prefixes"), 0u);
  EXPECT_GT(metrics.counter("stream.gap_days"), 0u);
  std::size_t compacted = 0;
  for (const DetectorShard& shard : detector.shards()) compacted += shard.alarms().compacted();
  EXPECT_GT(compacted, 0u);

  // Resumed from a mid-run checkpoint, the count stays exact to the end.
  TraceReplaySource first_source(trace, overrides);
  FaultyFeed first_feed(first_source, faults);
  StreamDetector first(config);
  while (first.last_flushed_day() < trace.days / 2) first.ingest(std::move(*first_feed.next()));
  std::ostringstream os;
  first.save_checkpoint(os);
  std::istringstream is(os.str());
  StreamDetector resumed = StreamDetector::restore_checkpoint(is, config);
  TraceReplaySource resumed_source(trace, overrides);
  FaultyFeed resumed_feed(resumed_source, faults);
  fast_forward(resumed_feed, resumed.consumed());
  EXPECT_GT(expect_exact_bytes_every_day(resumed, resumed_feed), trace.days / 3);
  resumed.finish();
  detector.finish();
  EXPECT_EQ(fingerprint(resumed), fingerprint(detector));
}

// ---------------------------------------------------------------------------
// Mutate and re-checksum. The checksum rejects accidental damage before any
// field is parsed, so flipping bytes only ever exercises the framing. A file
// that was edited and re-sealed (or written by a buggy writer) reaches the
// field parser intact; restore must then either succeed or throw
// std::invalid_argument — never allocate from an absurd count, never accept
// an enum outside its range, never throw anything else.

/// Every weekly checkpoint image of an attacked and churned run.
std::vector<std::string> weekly_images() {
  const auto trace = crash_trace();
  const auto churn = plan_churn(trace, ChurnConfig{.seed = 5, .share = 0.3});
  const auto plans = plan_attacks(trace, AttackConfig{.seed = 13, .attacks = 4}, churn);
  std::vector<OriginOverride> overrides = churn;
  for (const auto& p : plans) overrides.push_back(p.inject);
  TraceReplaySource source(trace, overrides);
  StreamConfig config = crash_config();
  config.checkpoint_every_days = 7;
  std::vector<std::string> images;
  StreamDetector detector(config);
  detector.run(source, [&](const StreamDetector& d, int) {
    std::ostringstream os;
    d.save_checkpoint(os);
    images.push_back(os.str());
  });
  return images;
}

/// A real mid-run image: alarms retained in the log, and days still
/// buffered in the front-end.
std::string fuzz_image() {
  std::string image;
  for (const std::string& text : weekly_images()) {
    if (text.find("\nalarm ") != std::string::npos && text.find("\nbday ") != std::string::npos) {
      image = text;
    }
  }
  return image;
}

TEST(CheckpointRestore, HugeBufferedCountIsRejected) {
  // bday <day> <later> <n>: n updates follow. An n beyond the remaining
  // lines must be rejected before anything is reserved for it.
  const std::string image = fuzz_image();
  ASSERT_FALSE(image.empty());
  for (const char* n : {"1000000000", "4611686018427387904"}) {
    std::istringstream is(with_token(image, "bday", 3, n));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument)
        << n;
  }
}

/// The payload of the first weekly image holding both a state with an open
/// alarm and a state without one, with the index of the first of each.
struct StateLines {
  std::vector<std::string> lines;
  std::size_t open = 0;
  std::size_t quiet = 0;

  /// The image with token `index` of line `line` set to `value`, re-sealed.
  std::string with(std::size_t line, std::size_t index, const std::string& value) const {
    std::vector<std::string> edited = lines;
    std::vector<std::string> tokens = util::split(edited[line], ' ');
    tokens.at(index) = value;
    edited[line] = util::join(tokens, " ");
    return reseal(edited);
  }
  std::string token(std::size_t line, std::size_t index) const {
    return util::split(lines[line], ' ').at(index);
  }
};

// state <prefix> <first> <last> <last_moas> <duration> <max_origins>
// <alarm_id> <conflict_since> <conflict_day> ...
constexpr std::size_t kStateLastDay = 3;
constexpr std::size_t kStateAlarmId = 7;
constexpr std::size_t kStateConflictDay = 9;

StateLines open_and_quiet_states() {
  StateLines s;
  for (const std::string& image : weekly_images()) {
    s.lines = payload_lines(image);
    s.open = s.quiet = s.lines.size();
    for (std::size_t i = 0; i < s.lines.size(); ++i) {
      const std::vector<std::string> tokens = util::split(s.lines[i], ' ');
      if (tokens.front() != "state") continue;
      std::size_t& first = tokens.at(kStateAlarmId) == "-1" ? s.quiet : s.open;
      if (first == s.lines.size()) first = i;
    }
    if (s.open < s.lines.size() && s.quiet < s.lines.size()) break;
  }
  return s;
}

TEST(CheckpointRestore, UnpairedOpenAlarmIsRejected) {
  // A state's alarm id must name a retained open alarm, and every retained
  // open alarm must be named by its state. Either hole would only surface
  // later, when a shard worker settles the alarm mid-run.
  const StateLines s = open_and_quiet_states();
  ASSERT_LT(s.open, s.lines.size());
  ASSERT_LT(s.quiet, s.lines.size());
  {  // a quiet state names an alarm the log never retained
    std::istringstream is(s.with(s.quiet, kStateAlarmId, "1000000"));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument);
  }
  {  // an open alarm loses the state that names it
    std::istringstream is(s.with(s.open, kStateAlarmId, "-1"));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument);
  }
}

TEST(CheckpointRestore, InconsistentConflictDayIsRejected) {
  // A conflict day is set and cleared with its alarm id. An open alarm's
  // day lies in [0, last_day] and places it in the TTL index; a day outside
  // that range would never expire, or expire out of turn.
  const StateLines s = open_and_quiet_states();
  ASSERT_LT(s.open, s.lines.size());
  ASSERT_LT(s.quiet, s.lines.size());
  const int open_last = std::stoi(s.token(s.open, kStateLastDay));
  for (const int day : {-1, open_last + 1}) {
    std::istringstream is(s.with(s.open, kStateConflictDay, std::to_string(day)));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument)
        << "open alarm, conflict day " << day;
  }
  {  // a state with no alarm keeps a conflict day
    std::istringstream is(s.with(s.quiet, kStateConflictDay, s.token(s.quiet, kStateLastDay)));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument);
  }
}

TEST(CheckpointRestore, StaleByteCountIsRejected) {
  // bytes <held> <peak>: the shard keeps its byte count as a running total
  // from here on, so a held value off by one byte would stay off forever.
  const std::string image = fuzz_image();
  ASSERT_FALSE(image.empty());
  std::vector<std::string> lines = payload_lines(image);
  const auto bytes = std::find_if(lines.begin(), lines.end(), [](const std::string& line) {
    return line.rfind("bytes ", 0) == 0;
  });
  ASSERT_NE(bytes, lines.end());
  const std::vector<std::string> tokens = util::split(*bytes, ' ');
  const std::uint64_t held = std::stoull(tokens.at(1));
  for (const std::uint64_t wrong : {held - 1, held + 1}) {
    std::istringstream is(with_token(image, "bytes", 1, std::to_string(wrong)));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument)
        << wrong;
  }
}

TEST(CheckpointRestore, DupListBeyondTheWindowIsRejected) {
  // dup <n> <seq>...: the front-end never holds more sequence numbers than
  // its 4,096-entry dedup window, and a longer list would never shrink back.
  const std::string image = fuzz_image();
  ASSERT_FALSE(image.empty());
  std::vector<std::string> lines = payload_lines(image);
  const auto dup = std::find_if(lines.begin(), lines.end(), [](const std::string& line) {
    return line.rfind("dup ", 0) == 0;
  });
  ASSERT_NE(dup, lines.end());
  *dup = "dup 5000";
  for (int seq = 1; seq <= 5000; ++seq) *dup += ' ' + std::to_string(seq);
  std::istringstream is(reseal(lines));
  EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument);
}

TEST(CheckpointRestore, RepeatedDupSeqIsRejected) {
  // dup <n> <seq>...: a live window never holds a seq twice. A repeat would
  // leave the dedup table one member short of the FIFO, and the erase that
  // later slides the repeat out would probe for a seq that is not there.
  const std::string image = fuzz_image();
  ASSERT_FALSE(image.empty());
  std::vector<std::string> lines = payload_lines(image);
  const auto dup = std::find_if(lines.begin(), lines.end(), [](const std::string& line) {
    return line.rfind("dup ", 0) == 0;
  });
  ASSERT_NE(dup, lines.end());
  std::vector<std::string> tokens = util::split(*dup, ' ');
  ASSERT_GE(tokens.size(), 4u);
  tokens[3] = tokens[2];
  *dup = util::join(tokens, " ");
  std::istringstream is(reseal(lines));
  EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument);
}

TEST(CheckpointRestore, OutOfRangeAlarmEnumsAreRejected) {
  // alarm <at> <settled_at> <observer> <cause> <state> ...
  const std::string image = fuzz_image();
  ASSERT_FALSE(image.empty());
  {
    std::istringstream is(with_token(image, "alarm", 4, "7"));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument);
  }
  {
    std::istringstream is(with_token(image, "alarm", 5, "9"));
    EXPECT_THROW(StreamDetector::restore_checkpoint(is, crash_config()), std::invalid_argument);
  }
}

std::string mutate(const std::vector<std::string>& original, util::Rng& rng, std::string& what) {
  std::vector<std::string> lines = original;
  // Pick a record kind first, then a line of that kind: the image is mostly
  // buffered-update and state lines, and the rare structural ones (counts,
  // alarm log header) are where a bad value does the most damage.
  std::map<std::string, std::vector<std::size_t>> by_tag;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    by_tag[lines[k].substr(0, lines[k].find(' '))].push_back(k);
  }
  auto kind = by_tag.begin();
  std::advance(kind, static_cast<std::ptrdiff_t>(rng.index(by_tag.size())));
  const std::size_t at = kind->second[rng.index(kind->second.size())];
  if (rng.chance(0.1)) {
    // Truncation: a writer that died mid-structure, then sealed.
    lines.resize(at);
    what = "truncate to " + std::to_string(at) + " lines";
    return reseal(lines);
  }
  std::vector<std::string> tokens = util::split(lines[at], ' ');
  const std::size_t i = rng.index(tokens.size());
  std::string& token = tokens[i];
  static const char* const kCounts[] = {"0", "1", "2", "3", "4", "9", "255", "65536",
                                        "4294967296", "1000000000", "4611686018427387904",
                                        "18446744073709551615"};
  switch (rng.index(4)) {
    case 0:  // one digit
      token[rng.index(token.size())] = static_cast<char>('0' + rng.index(10));
      break;
    case 1:  // a count, small or absurd
      token = kCounts[rng.index(std::size(kCounts))];
      break;
    case 2:  // an enum value just past or far past its range
      token = std::to_string(rng.index(16));
      break;
    default:  // drop the rest of the line
      tokens.resize(i);
      break;
  }
  lines[at] = util::join(tokens, " ");
  what = "line " + std::to_string(at) + " -> '" + lines[at] + "'";
  return reseal(lines);
}

class CheckpointFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointFuzz, ResealedMutationsRestoreOrReject) {
  static const std::string image = fuzz_image();
  ASSERT_FALSE(image.empty());
  const std::vector<std::string> lines = payload_lines(image);
  ASSERT_EQ(reseal(lines), image);  // re-sealing an untouched image is the identity
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::string what;
    const std::string mutated = mutate(lines, rng, what);
    const std::string outcome = restore_outcome(mutated);
    ASSERT_EQ(outcome, "") << what;
  }
}

// Each seed's one-digit and small-count edits of the dup line also repeat
// a seq a dozen times or more, which restore must reject, not merge.
INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace moas::stream
