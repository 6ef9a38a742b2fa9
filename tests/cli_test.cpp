// Tests for the donkeytrace CLI's argument parser and IPv4 parsing.
#include <gtest/gtest.h>

#include "cli_args.hpp"

namespace dtr::cli {
namespace {

Args make_args(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  storage.insert(storage.begin(), "donkeytrace");
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, CommandAndPositional) {
  Args args = make_args({"analyze", "data.xml", "extra"});
  EXPECT_EQ(args.command(), "analyze");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "data.xml");
}

TEST(CliArgs, SpaceSeparatedOptions) {
  Args args = make_args({"campaign", "--seed", "7", "--clients", "100"});
  EXPECT_EQ(args.get_u64("seed", 0), 7u);
  EXPECT_EQ(args.get_u64("clients", 0), 100u);
}

TEST(CliArgs, EqualsSeparatedOptions) {
  Args args = make_args({"campaign", "--seed=9", "--xml=out.xml"});
  EXPECT_EQ(args.get_u64("seed", 0), 9u);
  EXPECT_EQ(args.get("xml"), "out.xml");
}

TEST(CliArgs, BooleanFlags) {
  Args args = make_args({"campaign", "--background", "--seed", "1"});
  EXPECT_TRUE(args.has("background"));
  EXPECT_FALSE(args.has("verbose"));
}

TEST(CliArgs, FallbacksOnMissing) {
  Args args = make_args({"campaign"});
  EXPECT_EQ(args.get_u64("missing", 7), 7u);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_f64("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_ipv4("missing", 0xC0A80001u), 0xC0A80001u);
}

/// The UsageError message `fn` throws, or "" when it does not throw.
template <typename F>
std::string usage_error(F&& fn) {
  try {
    fn();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(CliArgs, MalformedValuesAreUsageErrorsNamingTheFlag) {
  Args args = make_args({"campaign", "--seed", "notanumber", "--hours", "2x",
                         "--empty=", "--rate", "1.5x", "--gap", "-1",
                         "--inf", "inf", "--ip", "1.2.3", "--flag"});
  EXPECT_NE(usage_error([&] { (void)args.get_u64("seed", 42); })
                .find("--seed"),
            std::string::npos);
  EXPECT_NE(usage_error([&] { (void)args.get_u64("hours", 48); })
                .find("'2x'"),
            std::string::npos);
  EXPECT_NE(usage_error([&] { (void)args.get_u64("empty", 1); }), "");
  // A flag given without a value reads as "true", which is no number.
  EXPECT_NE(usage_error([&] { (void)args.get_u64("flag", 1); }), "");
  EXPECT_NE(usage_error([&] { (void)args.get_f64("rate", 1.0); }), "");
  EXPECT_NE(usage_error([&] { (void)args.get_f64("gap", 1.0); }), "");
  EXPECT_NE(usage_error([&] { (void)args.get_f64("inf", 1.0); }), "");
  EXPECT_NE(usage_error([&] { (void)args.get_ipv4("ip", 1); }).find("--ip"),
            std::string::npos);
}

TEST(CliArgs, ValuesOutsideTheTargetTypeAreRejectedNotNarrowed) {
  Args args = make_args({"decode", "--port", "70000", "--clients",
                         "4294967297", "--ok-port", "65535", "--hours",
                         "11", "--big", "18446744073709551616"});
  EXPECT_NE(usage_error([&] { (void)args.get_uint<std::uint16_t>("port", 1); })
                .find("--port"),
            std::string::npos);
  EXPECT_NE(
      usage_error([&] { (void)args.get_uint<std::uint32_t>("clients", 1); }),
      "");
  EXPECT_EQ(args.get_uint<std::uint16_t>("ok-port", 1), 65535u);
  EXPECT_NE(usage_error([&] { (void)args.get_u64("hours", 1, 10); }), "");
  EXPECT_EQ(args.get_u64("hours", 1, 11), 11u);
  EXPECT_NE(usage_error([&] { (void)args.get_u64("big", 1); }), "");
  EXPECT_NE(usage_error([&] { (void)args.get_f64("hours", 1.0, 10.0); }), "");
}

TEST(CliArgs, FloatOptions) {
  Args args = make_args({"campaign", "--tcp-quiet", "2.75"});
  EXPECT_DOUBLE_EQ(args.get_f64("tcp-quiet", 0.0), 2.75);
}

TEST(CliArgs, UnusedDetectsTypos) {
  Args args = make_args({"campaign", "--sead", "7", "--clients", "5"});
  EXPECT_EQ(args.get_u64("seed", 0), 0u);
  EXPECT_EQ(args.get_u64("clients", 0), 5u);
  auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "sead");
}

TEST(CliArgs, FlagFollowedByFlag) {
  Args args = make_args({"campaign", "--background", "--xml", "o.xml"});
  EXPECT_TRUE(args.has("background"));
  EXPECT_EQ(args.get("xml"), "o.xml");
}

TEST(ParseIpv4, ValidAddresses) {
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xFFFFFFFFu);
  EXPECT_EQ(parse_ipv4("192.168.0.1"), 0xC0A80001u);
  EXPECT_EQ(parse_ipv4("10.0.0.1"), 0x0A000001u);
}

TEST(ParseIpv4, InvalidAddresses) {
  EXPECT_FALSE(parse_ipv4(""));
  EXPECT_FALSE(parse_ipv4("1.2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(parse_ipv4("256.0.0.1"));
  EXPECT_FALSE(parse_ipv4("1.2.3.x"));
  EXPECT_FALSE(parse_ipv4("1..2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4 "));
  EXPECT_FALSE(parse_ipv4("0001.2.3.4"));
}

}  // namespace
}  // namespace dtr::cli
