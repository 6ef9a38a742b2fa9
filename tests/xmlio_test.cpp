// XML writer, pull parser, and dataset schema round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <streambuf>
#include <string_view>

#include "anon/anonymiser.hpp"
#include "common/rng.hpp"
#include "hash/md5.hpp"
#include "xmlio/compress.hpp"
#include "xmlio/parser.hpp"
#include "xmlio/schema.hpp"
#include "xmlio/writer.hpp"

namespace dtr::xmlio {
namespace {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

TEST(Writer, Escaping) {
  EXPECT_EQ(xml_escape("a<b>&\"'c"), "a&lt;b&gt;&amp;&quot;&apos;c");
  EXPECT_EQ(xml_escape("plain"), "plain");
  EXPECT_EQ(xml_escape(""), "");
}

TEST(Writer, SelfClosingElement) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("empty").attr("k", "v").close();
  EXPECT_EQ(out.str(), "<empty k=\"v\"/>");
}

TEST(Writer, NestedElements) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("a").open("b").text("hi").close().close();
  EXPECT_EQ(out.str(), "<a><b>hi</b></a>");
}

TEST(Writer, AttributesEscaped) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("e").attr("k", "a\"b<c").close();
  EXPECT_EQ(out.str(), "<e k=\"a&quot;b&lt;c\"/>");
}

TEST(Writer, NumericAttr) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("e").attr("n", std::uint64_t{18446744073709551615ull}).close();
  EXPECT_EQ(out.str(), "<e n=\"18446744073709551615\"/>");
}

TEST(Writer, CloseAllUnwindsStack) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("a").open("b").open("c");
  w.close_all();
  EXPECT_EQ(out.str(), "<a><b><c/></b></a>");
  EXPECT_EQ(w.depth(), 0u);
}

TEST(Writer, PrettyModeProducesParseableIndentedOutput) {
  std::ostringstream out;
  XmlWriter w(out, /*pretty=*/true);
  w.declaration();
  w.open("capture").attr("spec", "x");
  w.open("msg").attr("t", std::uint64_t{1}).close();
  w.open("msg").attr("t", std::uint64_t{2}).open("f").attr("id", std::uint64_t{0}).close().close();
  w.close_all();
  std::string doc = out.str();
  EXPECT_NE(doc.find("\n  <msg"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\n    <f"), std::string::npos) << doc;
  // Pretty output must remain machine-readable.
  std::istringstream in(doc);
  XmlParser p(in);
  int starts = 0;
  while (auto t = p.next()) starts += (t->kind == XmlToken::Kind::kStartElement);
  EXPECT_TRUE(p.ok()) << p.error();
  EXPECT_EQ(starts, 4);
}

TEST(Writer, DeclarationAndElementCount) {
  std::ostringstream out;
  XmlWriter w(out);
  w.declaration();
  w.open("root").open("child").close().close();
  EXPECT_EQ(w.elements_written(), 2u);
  EXPECT_TRUE(out.str().starts_with("<?xml version=\"1.0\""));
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

// A token copied out of the parser: XmlParser's tokens view its window and
// are only valid until the next next() call.
struct OwnedToken {
  XmlToken::Kind kind = XmlToken::Kind::kText;
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string text;
  bool self_closing = false;

  [[nodiscard]] const std::string* attr(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

OwnedToken own(const XmlToken& t) {
  OwnedToken o;
  o.kind = t.kind;
  o.name = t.name;
  for (const auto& [k, v] : t.attrs) o.attrs.emplace_back(k, v);
  o.text = t.text;
  o.self_closing = t.self_closing;
  return o;
}

std::vector<OwnedToken> parse_all(const std::string& xml) {
  std::istringstream in(xml);
  XmlParser p(in);
  std::vector<OwnedToken> tokens;
  while (const XmlToken* t = p.next()) tokens.push_back(own(*t));
  EXPECT_TRUE(p.ok()) << p.error();
  return tokens;
}

TEST(Parser, SimpleDocument) {
  auto tokens = parse_all("<a x=\"1\"><b>text</b></a>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, XmlToken::Kind::kStartElement);
  EXPECT_EQ(tokens[0].name, "a");
  ASSERT_NE(tokens[0].attr("x"), nullptr);
  EXPECT_EQ(*tokens[0].attr("x"), "1");
  EXPECT_EQ(tokens[1].name, "b");
  EXPECT_EQ(tokens[2].kind, XmlToken::Kind::kText);
  EXPECT_EQ(tokens[2].text, "text");
  EXPECT_EQ(tokens[3].kind, XmlToken::Kind::kEndElement);
  EXPECT_EQ(tokens[4].name, "a");
}

TEST(Parser, SelfClosingEmitsBothTokens) {
  auto tokens = parse_all("<a><b k=\"v\"/></a>");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].name, "b");
  EXPECT_TRUE(tokens[1].self_closing);
  EXPECT_EQ(tokens[2].kind, XmlToken::Kind::kEndElement);
  EXPECT_EQ(tokens[2].name, "b");
}

TEST(Parser, DeclarationAndCommentsSkipped) {
  auto tokens =
      parse_all("<?xml version=\"1.0\"?><!-- note --><r/><!-- tail -->");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "r");
}

TEST(Parser, EntitiesDecoded) {
  auto tokens = parse_all("<a k=\"1&amp;2\">x&lt;y&gt;z</a>");
  EXPECT_EQ(*tokens[0].attr("k"), "1&2");
  EXPECT_EQ(tokens[1].text, "x<y>z");
}

TEST(Parser, WhitespaceBetweenElementsIgnored) {
  auto tokens = parse_all("<a>\n  <b/>\n</a>");
  ASSERT_EQ(tokens.size(), 4u);  // no text tokens for pure whitespace
}

TEST(Parser, MalformedInputsFlagError) {
  const std::pair<const char*, const char*> cases[] = {
      {"<a", "unterminated start tag"},
      {"<a x=1></a>", "expected '\"'"},
      {"<a x=\"1></a>", "unterminated attribute value"},
      {"<a>&unknown;</a>", "unknown entity: unknown"},
      {"<>", "empty name"},
      {"<a k=\"&amp\"/>", "unterminated entity"},
      {"</a", "expected '>'"},
      {"<a x>", "expected '='"},
      {"<a/x>", "expected '>'"},
      {"<?xml", "unterminated declaration"},
      {"<!x>", "malformed comment"},
      {"<!-- x", "unterminated comment"},
  };
  for (const auto& [bad, message] : cases) {
    std::istringstream in(bad);
    XmlParser p(in);
    while (p.next()) {
    }
    EXPECT_FALSE(p.ok()) << "input: " << bad;
    EXPECT_EQ(p.error(), message) << "input: " << bad;
  }
  // A mismatched end tag is caught by the schema layer; the parser accepts it.
  std::istringstream in("<a></b>");
  XmlParser p(in);
  while (p.next()) {
  }
  EXPECT_TRUE(p.ok());
}

TEST(Parser, WriterOutputAlwaysParses) {
  std::ostringstream out;
  XmlWriter w(out, /*pretty=*/true);
  w.declaration();
  w.open("root").attr("spec", "x&y");
  for (int i = 0; i < 10; ++i) {
    w.open("item").attr("i", static_cast<std::uint64_t>(i));
    w.text("payload <" + std::to_string(i) + ">");
    w.close();
  }
  w.close_all();
  auto tokens = parse_all(out.str());
  int starts = 0;
  for (const auto& t : tokens) starts += (t.kind == XmlToken::Kind::kStartElement);
  EXPECT_EQ(starts, 11);
}

TEST(Parser, EntityValuesOfOneTagStayDistinct) {
  // Each decoded value lives in the parser's decode buffer; decoding a
  // later value must not move an earlier one.
  const std::string a(700, 'a'), b(900, 'b'), c(1100, 'c');
  auto tokens = parse_all(R"(<t x="&lt;)" + a + R"(" y=")" + b +
                          R"(&gt;" p="plain" z="&amp;)" + c + R"(&quot;"/>)");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(*tokens[0].attr("x"), "<" + a);
  EXPECT_EQ(*tokens[0].attr("y"), b + ">");
  EXPECT_EQ(*tokens[0].attr("p"), "plain");
  EXPECT_EQ(*tokens[0].attr("z"), "&" + c + "\"");
}

TEST(Parser, TokensLargerThanTheWindowGrowIt) {
  const std::string value(3 * XmlParser::kBlockSize + 17, 'v');
  const std::string text(2 * XmlParser::kBlockSize, 't');
  auto tokens = parse_all("<a k=\"" + value + "\">" + text + "</a><!--" +
                          std::string(XmlParser::kBlockSize, '-') + "-->");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(*tokens[0].attr("k"), value);
  EXPECT_EQ(tokens[1].text, text);
  EXPECT_EQ(tokens[2].kind, XmlToken::Kind::kEndElement);
  EXPECT_EQ(tokens[2].name, "a");
}

// ---------------------------------------------------------------------------
// Dataset schema
// ---------------------------------------------------------------------------

anon::StringToken tok(const char* s) { return Md5::digest(std::string_view(s)); }

std::vector<anon::AnonEvent> sample_events() {
  std::vector<anon::AnonEvent> events;

  anon::AnonEvent stat;
  stat.time = 1;
  stat.peer = 10;
  stat.is_query = true;
  stat.message = anon::AServStatReq{};
  events.push_back(std::move(stat));

  anon::AnonEvent statres;
  statres.time = 2;
  statres.peer = 10;
  statres.is_query = false;
  statres.message = anon::AServStatRes{123456, 7890123};
  events.push_back(std::move(statres));

  anon::AnonEvent desc;
  desc.time = 3;
  desc.peer = 11;
  desc.is_query = false;
  desc.message = anon::AServerDescRes{tok("name"), tok("desc")};
  events.push_back(std::move(desc));

  anon::AnonEvent servers;
  servers.time = 4;
  servers.peer = 11;
  servers.is_query = false;
  servers.message = anon::AServerList{42};
  events.push_back(std::move(servers));

  anon::AnonEvent search;
  search.time = 5;
  search.peer = 12;
  search.is_query = true;
  {
    anon::AFileSearchReq req;
    auto expr = std::make_unique<anon::AnonSearchExpr>();
    expr->kind = proto::SearchExpr::Kind::kBool;
    expr->op = proto::BoolOp::kAnd;
    expr->left = std::make_unique<anon::AnonSearchExpr>();
    expr->left->kind = proto::SearchExpr::Kind::kKeyword;
    expr->left->token = tok("kw");
    expr->right = std::make_unique<anon::AnonSearchExpr>();
    expr->right->kind = proto::SearchExpr::Kind::kMetaNumeric;
    expr->right->tag_token = tok("\x02");
    expr->right->number = 700000;
    expr->right->cmp = proto::NumCmp::kMin;
    req.expr = std::move(expr);
    search.message = std::move(req);
  }
  events.push_back(std::move(search));

  anon::AnonEvent results;
  results.time = 6;
  results.peer = 12;
  results.is_query = false;
  {
    anon::AFileSearchRes res;
    anon::AnonFileEntry e;
    e.file = 100;
    e.provider = 55;
    e.port = 4662;
    e.meta.name = tok("file.avi");
    e.meta.size_kb = 683594;
    e.meta.type = tok("video");
    e.meta.availability = 3;
    res.results.push_back(e);
    anon::AnonFileEntry minimal;
    minimal.file = 101;
    minimal.provider = 56;
    res.results.push_back(minimal);
    results.message = std::move(res);
  }
  events.push_back(std::move(results));

  anon::AnonEvent getsrc;
  getsrc.time = 7;
  getsrc.peer = 13;
  getsrc.is_query = true;
  getsrc.message = anon::AGetSourcesReq{{100, 101, 102}};
  events.push_back(std::move(getsrc));

  anon::AnonEvent foundsrc;
  foundsrc.time = 8;
  foundsrc.peer = 13;
  foundsrc.is_query = false;
  foundsrc.message =
      anon::AFoundSourcesRes{100, {{55, 4662}, {56, 4663}}};
  events.push_back(std::move(foundsrc));

  anon::AnonEvent publish;
  publish.time = 9;
  publish.peer = 14;
  publish.is_query = true;
  {
    anon::APublishReq req;
    anon::AnonFileEntry e;
    e.file = 200;
    e.provider = 14;
    e.meta.size_kb = 4200;
    req.files.push_back(e);
    publish.message = std::move(req);
  }
  events.push_back(std::move(publish));

  anon::AnonEvent ack;
  ack.time = 10;
  ack.peer = 14;
  ack.is_query = false;
  ack.message = anon::APublishAck{1};
  events.push_back(std::move(ack));

  anon::AnonEvent descreq;
  descreq.time = 11;
  descreq.peer = 15;
  descreq.is_query = true;
  descreq.message = anon::AServerDescReq{};
  events.push_back(std::move(descreq));

  anon::AnonEvent getservers;
  getservers.time = 12;
  getservers.peer = 15;
  getservers.is_query = true;
  getservers.message = anon::AGetServerList{};
  events.push_back(std::move(getservers));

  return events;
}

bool expr_equal(const anon::AnonSearchExpr* a, const anon::AnonSearchExpr* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind || a->token != b->token ||
      a->tag_token != b->tag_token || a->number != b->number ||
      a->cmp != b->cmp || a->op != b->op)
    return false;
  return expr_equal(a->left.get(), b->left.get()) &&
         expr_equal(a->right.get(), b->right.get());
}

struct AnonBodyEq {
  const anon::AnonMessage& other;
  bool operator()(const anon::AFileSearchReq& v) const {
    return expr_equal(v.expr.get(),
                      std::get<anon::AFileSearchReq>(other).expr.get());
  }
  template <typename T>
  bool operator()(const T& v) const {
    return v == std::get<T>(other);
  }
};

bool anon_messages_equal(const anon::AnonMessage& a,
                         const anon::AnonMessage& b) {
  if (a.index() != b.index()) return false;
  return std::visit(AnonBodyEq{b}, a);
}

TEST(Schema, RoundtripAllKinds) {
  auto events = sample_events();
  std::ostringstream out;
  {
    DatasetWriter w(out);
    for (const auto& ev : events) w.write(ev);
    w.finish();
    EXPECT_EQ(w.events_written(), events.size());
  }

  std::istringstream in(out.str());
  DatasetReader r(in);
  std::size_t i = 0;
  while (auto ev = r.next()) {
    ASSERT_LT(i, events.size());
    EXPECT_EQ(ev->time, events[i].time) << "event " << i;
    EXPECT_EQ(ev->peer, events[i].peer) << "event " << i;
    EXPECT_EQ(ev->is_query, events[i].is_query) << "event " << i;
    EXPECT_TRUE(anon_messages_equal(ev->message, events[i].message))
        << "event " << i;
    ++i;
  }
  EXPECT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(i, events.size());
}

TEST(Schema, ReaderRejectsMissingAttributes) {
  std::istringstream in("<capture><msg peer=\"1\" dir=\"q\" kind=\"statreq\"/></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());  // missing t
}

TEST(Schema, ReaderRejectsUnknownKind) {
  std::istringstream in(
      "<capture><msg t=\"1\" peer=\"1\" dir=\"q\" kind=\"nope\"/></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());
}

TEST(Schema, ReaderRejectsBadDirection) {
  std::istringstream in(
      "<capture><msg t=\"1\" peer=\"1\" dir=\"x\" kind=\"statreq\"/></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());
}

TEST(Schema, ReaderRejectsMsgOutsideCapture) {
  std::istringstream in("<msg t=\"1\" peer=\"1\" dir=\"q\" kind=\"statreq\"/>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());
}

TEST(Schema, EmptyCaptureIsValid) {
  std::istringstream in("<capture spec=\"donkeytrace-1\"></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_TRUE(r.ok());
}

TEST(Schema, ReaderRejectsDocumentsWithoutACompleteRoot) {
  // Not a dataset: nothing, binary bytes such as a whole-file DTZ1
  // container, or text with no <capture> element.
  for (const std::string& doc :
       {std::string(), std::string("DTZ1\x10\0\0\0\0\0\0\0abc", 15),
        std::string("just text")}) {
    std::istringstream in(doc);
    DatasetReader r(in);
    EXPECT_FALSE(r.next());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), "no <capture> root element");
  }
  // Cut after a complete <msg>: every event before the cut is returned,
  // then the missing </capture> is an error, not a clean end.
  std::istringstream in(
      "<capture><msg t=\"1\" peer=\"1\" dir=\"q\" kind=\"statreq\"/>");
  DatasetReader r(in);
  EXPECT_TRUE(r.next());
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "document ends inside <capture> (truncated)");
}

TEST(Schema, ReaderStopsAtTheEndOfTheRoot) {
  std::istringstream in(
      "<capture></capture><msg t=\"1\" peer=\"1\" dir=\"q\" "
      "kind=\"statreq\"/>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.next());
  EXPECT_TRUE(r.ok());
}

TEST(Schema, HashesSurviveRoundtripExactly) {
  anon::AnonEvent ev;
  ev.time = 99;
  ev.peer = 1;
  ev.is_query = false;
  ev.message = anon::AServerDescRes{tok("x"), tok("y")};
  std::ostringstream out;
  {
    DatasetWriter w(out);
    w.write(ev);
  }
  std::istringstream in(out.str());
  DatasetReader r(in);
  auto got = r.next();
  ASSERT_TRUE(got);
  const auto& m = std::get<anon::AServerDescRes>(got->message);
  EXPECT_EQ(m.name.hex(), tok("x").hex());
}

std::string capture(const std::string& msg) {
  return "<capture>" + msg + "</capture>";
}

// Reads `doc` to the end; returns the reader's error ("" when it is ok).
std::string read_error(const std::string& doc) {
  std::istringstream in(doc);
  DatasetReader r(in);
  while (r.next()) {
  }
  return r.ok() ? std::string() : r.error();
}

// A <msg> at t=1 from peer 0; `rest` closes its start tag and holds the body.
std::string msg(const char* dir, const char* kind, const std::string& rest) {
  return std::string(R"(<msg t="1" peer="0" dir=")") + dir + R"(" kind=")" +
         kind + "\"" + rest;
}

TEST(Schema, ReaderRejectsMalformedHashes) {
  using Doc = std::string (*)(const std::string& hash);
  const Doc docs[] = {
      [](const std::string& h) {
        return msg("q", "search", R"(><kw h=")" + h + R"("/></msg>)");
      },
      [](const std::string& h) {
        return msg("q", "search", R"(><meta h=")" + tok("k").hex() +
                                      R"(" tag=")" + h + R"("/></msg>)");
      },
      [](const std::string& h) {
        return msg("a", "descres", R"( name=")" + h + R"(" desc=")" +
                                       tok("d").hex() + R"("/>)");
      },
      [](const std::string& h) {
        return msg("q", "publish",
                   R"(><f id="0" prov="0" name=")" + h + R"("/></msg>)");
      },
      [](const std::string& h) {
        return msg("a", "results",
                   R"(><f id="0" prov="0" type=")" + h + R"("/></msg>)");
      },
  };
  const std::string good = tok("x").hex();
  const std::string bad_hashes[] = {std::string(32, 'z'),
                                    good.substr(0, 31) + "g", good + "0",
                                    good.substr(1)};
  for (Doc doc : docs) {
    EXPECT_EQ(read_error(capture(doc(good))), "") << doc(good);
    for (const std::string& bad : bad_hashes) {
      EXPECT_NE(read_error(capture(doc(bad))), "") << doc(bad);
    }
  }
}

TEST(Schema, ReaderRejectsNumbersWiderThanTheirField) {
  struct Case {
    std::string (*doc)(const std::string& v);
    const char* max;   // largest value of the field's width: reads
    const char* over;  // a value past the width: fails
  };
  const Case cases[] = {
      {[](const std::string& v) {
         return R"(<msg t=")" + v + R"(" peer="0" dir="q" kind="statreq"/>)";
       },
       "18446744073709551615", "18446744073709551616"},
      {[](const std::string& v) {
         return R"(<msg t="1" peer=")" + v + R"(" dir="q" kind="statreq"/>)";
       },
       "4294967295", "4294967296"},
      {[](const std::string& v) {
         return msg("a", "statres", R"( users=")" + v + R"(" files="1"/>)");
       },
       "4294967295", "4294967296"},
      {[](const std::string& v) {
         return msg("a", "servers", R"( n=")" + v + R"("/>)");
       },
       "4294967295", "8589934592"},
      {[](const std::string& v) {
         return msg("a", "results",
                    R"(><f id="0" prov="0" port=")" + v + R"("/></msg>)");
       },
       "65535", "70000"},
      {[](const std::string& v) {
         return msg("q", "publish",
                    R"(><f id="0" prov="0" szkb=")" + v + R"("/></msg>)");
       },
       "4294967295", "4294967297"},
      {[](const std::string& v) {
         return msg("q", "publish",
                    R"(><f id="0" prov=")" + v + R"(" avail="1"/></msg>)");
       },
       "4294967295", "4294967296"},
      {[](const std::string& v) {
         return msg("a", "foundsrc",
                    R"( file="0"><s c="1" p=")" + v + R"("/></msg>)");
       },
       "65535", "65536"},
      {[](const std::string& v) {
         return msg("a", "foundsrc",
                    R"( file="0"><s c=")" + v + R"(" p="1"/></msg>)");
       },
       "4294967295", "4294967296"},
      {[](const std::string& v) {
         return msg("q", "search", R"(><num tag=")" + tok("size").hex() +
                                       R"(" cmp="min" v=")" + v +
                                       R"("/></msg>)");
       },
       "4294967295", "4294967296"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(read_error(capture(c.doc(c.max))), "") << c.doc(c.max);
    const std::string error = read_error(capture(c.doc(c.over)));
    EXPECT_NE(error.find("out of range"), std::string::npos)
        << c.doc(c.over) << " -> " << error;
  }
}

TEST(Schema, ReaderKeepsTheFirstOfRepeatedAttributes) {
  std::istringstream in(
      capture(R"(<msg t="5" peer="3" peer="4" dir="q" kind="statreq"/>)"));
  DatasetReader r(in);
  auto ev = r.next();
  ASSERT_TRUE(ev) << r.error();
  EXPECT_EQ(ev->peer, 3u);
}

// Hands out 1-7 bytes per read, so every token of a document straddles
// several refills of the parser's window.  The parser reads through
// sgetn() only.
class DribbleBuf : public std::streambuf {
 public:
  DribbleBuf(std::string_view data, std::uint64_t seed)
      : data_(data), rng_(seed) {}

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::size_t take =
        std::min({data_.size() - pos_, static_cast<std::size_t>(n),
                  static_cast<std::size_t>(1 + rng_.below(7))});
    data_.copy(s, take, pos_);
    pos_ += take;
    return static_cast<std::streamsize>(take);
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  Rng rng_;
};

TEST(Schema, RefillSeamsPreserveEveryEvent) {
  // A multi-megabyte pretty-printed document (declaration included), with
  // comments, entity-bearing text and an entity-bearing attribute the
  // reader ignores spliced in before the <msg> elements.
  std::vector<anon::AnonEvent> events;
  std::ostringstream out;
  {
    DatasetWriter w(out, /*pretty=*/true);
    for (std::uint64_t round = 0; out.tellp() < (3 << 20); ++round) {
      for (auto& ev : sample_events()) {
        ev.time += round * 100;
        w.write(ev);
        events.push_back(std::move(ev));
      }
    }
  }
  const std::string written = out.str();
  std::string doc;
  std::size_t msgs = 0;
  for (std::size_t at = 0;;) {
    const std::size_t next = written.find("<msg ", at);
    doc.append(written, at, next - at);
    if (next == std::string::npos) break;
    switch (msgs++ % 3) {
      case 0:
        doc += "<!-- msg " + std::to_string(msgs) + " -->";
        break;
      case 1:
        doc += "x &lt; y &amp;&amp; z &gt; w";
        break;
      case 2:
        doc += R"(<msg note="a&amp;b&quot;c&lt;&gt;&apos;" )";
        at = next + 5;
        continue;
    }
    doc += "<msg ";
    at = next + 5;
  }
  ASSERT_EQ(msgs, events.size());
  ASSERT_GT(doc.size(), 3u << 20);
  ASSERT_TRUE(doc.starts_with("<?xml"));

  const auto check = [&](std::istream& in, const char* how) {
    DatasetReader r(in);
    std::size_t i = 0;
    while (auto ev = r.next()) {
      ASSERT_LT(i, events.size()) << how;
      ASSERT_EQ(ev->time, events[i].time) << how << " event " << i;
      ASSERT_EQ(ev->peer, events[i].peer) << how << " event " << i;
      ASSERT_EQ(ev->is_query, events[i].is_query) << how << " event " << i;
      ASSERT_TRUE(anon_messages_equal(ev->message, events[i].message))
          << how << " event " << i;
      ++i;
    }
    EXPECT_TRUE(r.ok()) << how << ": " << r.error();
    EXPECT_EQ(i, events.size()) << how;
  };
  std::istringstream blocks(doc);
  check(blocks, "64 KiB blocks");
  for (std::uint64_t seed : {1u, 2u}) {
    DribbleBuf buf(doc, seed);
    std::istream dribble(&buf);
    check(dribble, "1-7 byte reads");
  }
}

// ---------------------------------------------------------------------------
// LZSS dataset compression
// ---------------------------------------------------------------------------

TEST(Compress, EmptyInput) {
  Bytes compressed = lz_compress({});
  auto out = lz_decompress(compressed);
  ASSERT_TRUE(out);
  EXPECT_TRUE(out->empty());
}

TEST(Compress, RoundtripText) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "<msg t=\"" + std::to_string(i * 37) +
            "\" peer=\"42\" dir=\"q\" kind=\"getsrc\"><f id=\"17\"/></msg>\n";
  }
  Bytes data(text.begin(), text.end());
  Bytes compressed = lz_compress(data);
  auto out = lz_decompress(compressed);
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, data);
  // Repetitive XML must compress well (paper footnote 3).
  EXPECT_LT(lz_ratio(data, compressed), 0.35);
}

TEST(Compress, RoundtripRandomIncompressible) {
  Rng rng(42);
  Bytes data(20000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  Bytes compressed = lz_compress(data);
  auto out = lz_decompress(compressed);
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, data);
  // Random data cannot shrink; the format guarantees bounded expansion.
  EXPECT_LE(compressed.size(), data.size() + data.size() / 8 + 16);
}

TEST(Compress, RoundtripAllByteValuesAndRuns) {
  Bytes data;
  for (int v = 0; v < 256; ++v) {
    for (int rep = 0; rep < v % 7 + 1; ++rep)
      data.push_back(static_cast<std::uint8_t>(v));
  }
  data.insert(data.end(), 1000, 0xAA);  // long run: long matches
  auto out = lz_decompress(lz_compress(data));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, data);
}

TEST(Compress, RoundtripChunkSizesProperty) {
  Rng rng(7);
  for (std::size_t size : {1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u, 1000u, 70000u}) {
    Bytes data(size);
    // Mixed compressible/incompressible content.
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = (i % 3 == 0) ? static_cast<std::uint8_t>(rng.below(256))
                             : static_cast<std::uint8_t>(i % 17);
    }
    auto out = lz_decompress(lz_compress(data));
    ASSERT_TRUE(out) << "size " << size;
    EXPECT_EQ(*out, data) << "size " << size;
  }
}

TEST(Compress, RejectsMalformedInput) {
  EXPECT_FALSE(lz_decompress({}));
  Bytes junk(20, 0x55);
  EXPECT_FALSE(lz_decompress(junk));
  // Valid magic but absurd claimed size.
  ByteWriter w;
  w.raw(Bytes{'D', 'T', 'Z', '1'});
  w.u64le(1ull << 60);
  Bytes absurd = std::move(w).take();
  EXPECT_FALSE(lz_decompress(absurd));
}

TEST(Compress, TruncatedStreamRejected) {
  Bytes data(5000, 'x');
  Bytes compressed = lz_compress(data);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(lz_decompress(compressed));
}

TEST(Compress, MutationNeverCrashes) {
  Bytes data;
  for (int i = 0; i < 3000; ++i)
    data.push_back(static_cast<std::uint8_t>(i % 97));
  Bytes compressed = lz_compress(data);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = compressed;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    (void)lz_decompress(mutated);  // any result is fine; no crash, no UB
  }
}

TEST(Compress, DatasetCompressesWell) {
  // A realistic dataset document, through the real writer.
  std::ostringstream out;
  {
    DatasetWriter w(out);
    for (auto& ev : sample_events()) {
      for (int rep = 0; rep < 40; ++rep) w.write(ev);
    }
  }
  std::string doc = out.str();
  Bytes data(doc.begin(), doc.end());
  Bytes compressed = lz_compress(data);
  auto restored = lz_decompress(compressed);
  ASSERT_TRUE(restored);
  EXPECT_EQ(*restored, data);
  EXPECT_LT(lz_ratio(data, compressed), 0.25)
      << "dataset XML must compress at least 4x";
}

}  // namespace
}  // namespace dtr::xmlio
