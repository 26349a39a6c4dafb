#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "common/json_writer.hpp"
#include "common/rng.hpp"

namespace laacad {
namespace {

std::string compact(const std::function<void(JsonWriter&)>& build) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  build(w);
  return out.str();
}

TEST(JsonWriter, EmptyObjectAndArray) {
  EXPECT_EQ(compact([](JsonWriter& w) { w.begin_object().end_object(); }),
            "{}");
  EXPECT_EQ(compact([](JsonWriter& w) { w.begin_array().end_array(); }), "[]");
}

TEST(JsonWriter, ObjectWithScalars) {
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object();
    w.kv("s", "hi");
    w.kv("i", 42);
    w.kv("d", 1.5);
    w.kv("b", true);
    w.key("n").null();
    w.end_object();
  });
  EXPECT_EQ(json, R"({"s":"hi","i":42,"d":1.5,"b":true,"n":null})");
}

TEST(JsonWriter, NestedStructures) {
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object();
    w.key("rows").begin_array();
    w.begin_object().kv("x", 1).end_object();
    w.begin_object().kv("x", 2).end_object();
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(json, R"({"rows":[{"x":1},{"x":2}]})");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  // Escaping applies to keys and values alike.
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object().kv("a,b\"c", "x\ny").end_object();
  });
  EXPECT_EQ(json, "{\"a,b\\\"c\":\"x\\ny\"}");
}

TEST(JsonWriter, NumbersRoundTripShortest) {
  EXPECT_EQ(JsonWriter::number_to_string(0.0), "0");
  EXPECT_EQ(JsonWriter::number_to_string(300.0), "300");
  EXPECT_EQ(JsonWriter::number_to_string(2.0e6), "2000000");
  EXPECT_EQ(JsonWriter::number_to_string(1.5), "1.5");
  EXPECT_EQ(JsonWriter::number_to_string(-0.25), "-0.25");
  // Shortest representation that parses back to the exact double.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(JsonWriter::number_to_string(v)), v);
  const double tiny = 1.2345678901234567e-12;
  EXPECT_EQ(std::stod(JsonWriter::number_to_string(tiny)), tiny);
}

// The snprintf+strtod formatter number_to_string replaced: try %.Pg for
// P = 1..17 and keep the first that parses back to the same double. Kept
// as the byte-for-byte reference for the to_chars implementation.
std::string reference_number_to_string(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(JsonWriter, NumberFormatMatchesSnprintfReferenceOn200kValues) {
  Rng rng(20261016);
  auto& engine = rng.engine();
  const double inf = std::numeric_limits<double>::infinity();
  int checked = 0;
  bool ok = true;
  const auto check = [&](double v) {
    const std::string got = JsonWriter::number_to_string(v);
    const std::string want = reference_number_to_string(v);
    if (got != want) {
      ADD_FAILURE() << std::hexfloat << v << ": got " << got << ", want "
                    << want;
      ok = false;
    }
    ++checked;
  };
  for (const double v : {0.0, -0.0, 9.0e15, -9.0e15,
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest(),
                         std::numeric_limits<double>::epsilon()})
    check(v);
  for (int i = 0; i < 31000 && ok; ++i) {
    // Uniform bit patterns: every exponent, both signs, NaN/inf included.
    check(from_bits(engine()));
    // Subnormals of both signs.
    const double sub = from_bits(engine() & ((std::uint64_t{1} << 52) - 1));
    check(rng.coin(0.5) ? sub : -sub);
    // Mixed decimal magnitudes, 1e-300 .. 1e300.
    const double mag = rng.uniform(1.0, 10.0) *
                       std::pow(10.0, rng.uniform_int(-300, 300));
    check(rng.coin(0.5) ? mag : -mag);
    // Short decimals (what metrics usually look like): x.yz at 0..6 places.
    const double scale = std::pow(10.0, rng.uniform_int(0, 6));
    check(std::round(rng.uniform(-1.0e4, 1.0e4) * scale) / scale);
    // Powers of two and their neighbours (asymmetric rounding intervals),
    // and the integral branch's 9e15 cut-off: integers on both sides of
    // it, and negative ones halved into non-integers near 4.5e15.
    if (i % 2 == 0) {
      const double p2 = std::ldexp(1.0, rng.uniform_int(-1074, 1023));
      check(p2);
      check(std::nextafter(p2, 0.0));
      check(std::nextafter(p2, inf));
    } else {
      const double near = 9.0e15 + rng.uniform_int(-2000, 2000);
      check(near);
      check(std::nextafter(-near, 0.0) * (rng.coin(0.5) ? 1.0 : 0.5));
    }
  }
  EXPECT_GE(checked, 200000);
}

TEST(JsonWriter, NonFiniteSerializesAsNull) {
  EXPECT_EQ(JsonWriter::number_to_string(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(JsonWriter::number_to_string(
                std::numeric_limits<double>::infinity()),
            "null");
  const std::string json = compact([](JsonWriter& w) {
    w.begin_object().kv("bad", std::nan("")).end_object();
  });
  EXPECT_EQ(json, R"({"bad":null})");
}

TEST(JsonWriter, IndentedOutputIsStable) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.kv("a", 1);
  w.key("b").begin_array().value(2).value(3).end_array();
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream out;
  {
    JsonWriter w(out, 0);
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w(out, 0);
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
    EXPECT_THROW(w.end_object(), std::logic_error);
  }
  {
    JsonWriter w(out, 0);
    w.value(1);  // complete scalar document
    EXPECT_THROW(w.value(2), std::logic_error);
  }
}

}  // namespace
}  // namespace laacad
