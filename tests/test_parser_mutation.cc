/**
 * @file
 * Seeded mutation tests for the service-path text parsers:
 * json::parse, wire::splitTagged and service::parseRequestLine.
 *
 * The valid corpus is the checked-in request set and its golden
 * results (tests/data/service_requests{,.golden}.jsonl), which must
 * round-trip exactly.  An Rng-driven mutator then corrupts copies
 * (bit flips, structural-byte swaps, insertions, deletions,
 * truncations, repeated spans) and each parser must return a value
 * or throw FatalError, never crash or throw anything else.  Fixed
 * seeds and a few thousand inputs per parser keep it deterministic
 * and well under a second, so the sanitizer jobs cover it too.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/json.hh"
#include "src/common/rng.hh"
#include "src/service/validation.hh"
#include "src/service/wire.hh"

namespace traq {
namespace {

namespace wire = service::wire;

constexpr int kMutants = 4000;

/** Non-blank, non-comment lines of one tests/data file (none when
 *  it cannot be opened; the tests then fail on an empty corpus). */
std::vector<std::string>
dataLines(const char *name)
{
    std::ifstream in(std::filesystem::path(__FILE__).parent_path() /
                     "data" / name);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    return lines;
}

const std::vector<std::string> kRequests =
    dataLines("service_requests.jsonl");

/** Request lines, then their golden result lines. */
const std::vector<std::string> kCorpus = [] {
    std::vector<std::string> all = kRequests;
    for (std::string &line : dataLines("service_requests.golden.jsonl"))
        all.push_back(std::move(line));
    return all;
}();

/** Apply 1-4 random edits to @p text. */
std::string
mutate(Rng &rng, std::string text)
{
    static constexpr std::string_view kSpecial =
        "{}[]\":,\\-+.0123456789eEtfnu \t\n";
    for (auto edits = 1 + rng.below(4); edits; --edits) {
        const std::size_t n = text.size();
        const std::size_t at = n ? rng.below(n) : 0;
        switch (n ? rng.below(6) : 2) {
          case 0: // flip a bit
            text[at] ^= static_cast<char>(1 << rng.below(8));
            break;
          case 1: // swap in a structural or numeric byte
            text[at] = kSpecial[rng.below(kSpecial.size())];
            break;
          case 2: // insert a random byte
            text.insert(at, 1, static_cast<char>(rng.below(256)));
            break;
          case 3: // delete a short span
            text.erase(at, 1 + rng.below(4));
            break;
          case 4: // truncate
            text.resize(at);
            break;
          default: // repeat a span in place
            text.insert(at, text.substr(at, 1 + rng.below(16)));
        }
    }
    return text;
}

/**
 * Feed kMutants corrupted copies of @p valid lines to @p parse; any
 * exception but FatalError fails.  Both outcomes must occur, so the
 * mutator neither always breaks the syntax nor always keeps it.
 */
template <typename Fn>
void
expectAcceptsOrThrowsFatal(std::uint64_t seed,
                           const std::vector<std::string> &valid,
                           Fn parse)
{
    ASSERT_FALSE(valid.empty()) << "no corpus under tests/data";
    Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < kMutants; ++i) {
        const std::string input =
            mutate(rng, valid[rng.below(valid.size())]);
        try {
            parse(input);
            ++accepted;
        } catch (const FatalError &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what() << " on input: " << input;
        }
    }
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutants);
}

TEST(ParserMutation, ValidCorpusRoundTrips)
{
    ASSERT_FALSE(kRequests.empty()) << "no corpus under tests/data";
    EXPECT_EQ(kCorpus.size(), 2 * kRequests.size());
    for (std::size_t i = 0; i < kCorpus.size(); ++i) {
        const std::string canon = json::parse(kCorpus[i]).dump();
        EXPECT_EQ(json::parse(canon).dump(), canon) << kCorpus[i];
        const wire::TaggedLine split =
            wire::splitTagged(wire::tagLine(i, kCorpus[i]));
        EXPECT_EQ(split.index, i);
        EXPECT_EQ(split.payload, kCorpus[i]);
    }
    for (const std::string &line : kRequests) {
        const service::ParsedLine parsed =
            service::parseRequestLine(line);
        EXPECT_TRUE(parsed.error.empty()) << line;
        EXPECT_FALSE(parsed.requests.empty()) << line;
    }
}

TEST(ParserMutation, JsonParseAcceptsOrThrowsFatal)
{
    expectAcceptsOrThrowsFatal(
        0x6a736f6eULL, kCorpus, [](const std::string &s) {
            // An accepted document still dumps to a fixed point.
            const std::string canon = json::parse(s).dump();
            EXPECT_EQ(json::parse(canon).dump(), canon) << s;
        });
}

TEST(ParserMutation, SplitTaggedAcceptsOrThrowsFatal)
{
    std::vector<std::string> tagged;
    for (std::size_t i = 0; i < kCorpus.size(); ++i)
        tagged.push_back(wire::tagLine(i, kCorpus[i]));
    expectAcceptsOrThrowsFatal(
        0x77697265ULL, tagged, [](const std::string &s) {
            // An accepted line yields an ordered-format payload.
            const std::string p = wire::splitTagged(s).payload;
            EXPECT_TRUE(!p.empty() && (p[0] == '{' || p[0] == '['))
                << s;
        });
}

TEST(ParserMutation, ParseRequestLineNeverThrows)
{
    ASSERT_FALSE(kRequests.empty()) << "no corpus under tests/data";
    Rng rng(0x72657175ULL);
    for (int i = 0; i < kMutants; ++i) {
        const std::string input =
            mutate(rng, kRequests[rng.below(kRequests.size())]);
        try {
            // A refused line submits nothing ("[]" is a valid empty
            // batch, so the converse does not hold).
            const service::ParsedLine parsed =
                service::parseRequestLine(input);
            if (!parsed.error.empty())
                EXPECT_TRUE(parsed.requests.empty()) << input;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "threw " << e.what() << " on: " << input;
        }
    }
}

} // namespace
} // namespace traq
