#include "xmlio/schema.hpp"

#include <array>
#include <charconv>
#include <iterator>
#include <ostream>
#include <string_view>

namespace dtr::xmlio {

namespace {

// The <msg kind="..."> values, in anon::AnonMessage's alternative order.
constexpr std::string_view kKindNames[] = {
    "statreq", "statres", "descreq",  "descres", "getservers", "servers",
    "search",  "results", "getsrc",   "foundsrc", "publish",   "puback"};
static_assert(std::size(kKindNames) == std::variant_size_v<anon::AnonMessage>);

std::string_view kind_name(const anon::AnonMessage& m) {
  return kKindNames[m.index()];
}

// Renders the same bytes XmlWriter produces in non-pretty mode, but into a
// std::string — pipeline workers pre-serialise <msg> elements with this and
// the merge thread splices them via DatasetWriter::write_rendered.
class StringEventWriter {
 public:
  explicit StringEventWriter(std::string& out) : out_(out) {}

  StringEventWriter& open(std::string_view name) {
    finish_open_tag();
    out_ += '<';
    out_.append(name);
    stack_.push_back(name);
    tag_open_ = true;
    ++elements_;
    return *this;
  }

  StringEventWriter& attr(std::string_view name, std::string_view value) {
    out_ += ' ';
    out_.append(name);
    out_ += "=\"";
    xml_escape_append(value, out_);
    out_ += '"';
    return *this;
  }

  StringEventWriter& attr(std::string_view name, std::uint64_t value) {
    out_ += ' ';
    out_.append(name);
    out_ += "=\"";
    char buf[20];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out_.append(buf, static_cast<std::size_t>(ptr - buf));
    out_ += '"';
    return *this;
  }

  StringEventWriter& close() {
    const std::string_view name = stack_.back();
    stack_.pop_back();
    if (tag_open_) {
      out_ += "/>";
      tag_open_ = false;
    } else {
      out_ += "</";
      out_.append(name);
      out_ += '>';
    }
    return *this;
  }

  [[nodiscard]] std::uint64_t elements() const { return elements_; }

 private:
  void finish_open_tag() {
    if (tag_open_) {
      out_ += '>';
      tag_open_ = false;
    }
  }

  std::string& out_;
  // Element names in this schema are string literals; views are safe.
  std::vector<std::string_view> stack_;
  bool tag_open_ = false;
  std::uint64_t elements_ = 0;
};

template <typename W>
void write_expr(W& w, const anon::AnonSearchExpr& e) {
  using Kind = proto::SearchExpr::Kind;
  switch (e.kind) {
    case Kind::kBool: {
      const char* name = e.op == proto::BoolOp::kAnd     ? "and"
                         : e.op == proto::BoolOp::kOr    ? "or"
                                                         : "andnot";
      w.open(name);
      if (e.left) write_expr(w, *e.left);
      if (e.right) write_expr(w, *e.right);
      w.close();
      break;
    }
    case Kind::kKeyword:
      w.open("kw").attr("h", e.token->hex()).close();
      break;
    case Kind::kMetaString:
      w.open("meta")
          .attr("h", e.token->hex())
          .attr("tag", e.tag_token->hex())
          .close();
      break;
    case Kind::kMetaNumeric:
      w.open("num")
          .attr("tag", e.tag_token->hex())
          .attr("cmp", e.cmp == proto::NumCmp::kMin ? "min" : "max")
          .attr("v", static_cast<std::uint64_t>(e.number))
          .close();
      break;
  }
}

template <typename W>
void write_file_entry(W& w, const anon::AnonFileEntry& f) {
  w.open("f").attr("id", f.file).attr("prov", f.provider);
  if (f.port != 0) w.attr("port", f.port);
  if (f.meta.name) w.attr("name", f.meta.name->hex());
  if (f.meta.size_kb) w.attr("szkb", *f.meta.size_kb);
  if (f.meta.type) w.attr("type", f.meta.type->hex());
  if (f.meta.availability) w.attr("avail", *f.meta.availability);
  w.close();
}

template <typename W>
struct BodyWriter {
  W& w;

  void operator()(const anon::AServStatReq&) {}
  void operator()(const anon::AServStatRes& m) {
    w.attr("users", m.users).attr("files", m.files);
  }
  void operator()(const anon::AServerDescReq&) {}
  void operator()(const anon::AServerDescRes& m) {
    w.attr("name", m.name.hex()).attr("desc", m.description.hex());
  }
  void operator()(const anon::AGetServerList&) {}
  void operator()(const anon::AServerList& m) { w.attr("n", m.count); }
  void operator()(const anon::AFileSearchReq& m) {
    if (m.expr) write_expr(w, *m.expr);
  }
  void operator()(const anon::AFileSearchRes& m) {
    for (const auto& f : m.results) write_file_entry(w, f);
  }
  void operator()(const anon::AGetSourcesReq& m) {
    for (auto id : m.files) w.open("f").attr("id", id).close();
  }
  void operator()(const anon::AFoundSourcesRes& m) {
    w.attr("file", m.file);
    for (const auto& s : m.sources)
      w.open("s").attr("c", s.client).attr("p", s.port).close();
  }
  void operator()(const anon::APublishReq& m) {
    for (const auto& f : m.files) write_file_entry(w, f);
  }
  void operator()(const anon::APublishAck& m) { w.attr("n", m.accepted); }
};

template <typename W>
void write_msg(W& w, const anon::AnonEvent& event) {
  w.open("msg")
      .attr("t", event.time)
      .attr("peer", event.peer)
      .attr("dir", event.is_query ? "q" : "a")
      .attr("kind", kind_name(event.message));
  // Attribute-carrying bodies must write attrs before children; BodyWriter
  // follows that order internally.
  std::visit(BodyWriter<W>{w}, event.message);
  w.close();
}

}  // namespace

DatasetWriter::DatasetWriter(std::ostream& out, bool pretty)
    : writer_(out, pretty) {
  writer_.declaration();
  writer_.open("capture").attr("spec", kCaptureSpec);
}

DatasetWriter::~DatasetWriter() { finish(); }

void DatasetWriter::write(const anon::AnonEvent& event) {
  write_msg(writer_, event);
  ++events_;
}

void DatasetWriter::write_rendered(std::string_view bytes,
                                   std::uint64_t events,
                                   std::uint64_t xml_elements) {
  writer_.write_raw(bytes, xml_elements);
  events_ += events;
}

std::uint64_t render_event(const anon::AnonEvent& event, std::string& out) {
  StringEventWriter w(out);
  write_msg(w, event);
  return w.elements();
}

void DatasetWriter::finish() {
  if (finished_) return;
  finished_ = true;
  writer_.close_all();
}

void DatasetWriter::resume(std::uint64_t events, std::uint64_t xml_elements) {
  events_ = events;
  if (events > 0) writer_.resume_inside_root("capture", xml_elements);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

enum class Element : std::uint8_t {
  kCapture, kMsg, kF, kS, kKw, kMeta, kNum, kAnd, kOr, kAndNot, kOther,
};

Element element_of(std::string_view n) {
  switch (n.size()) {
    case 1:
      return n[0] == 'f'   ? Element::kF
             : n[0] == 's' ? Element::kS
                           : Element::kOther;
    case 2:
      return n == "kw"   ? Element::kKw
             : n == "or" ? Element::kOr
                         : Element::kOther;
    case 3:
      return n == "msg"   ? Element::kMsg
             : n == "num" ? Element::kNum
             : n == "and" ? Element::kAnd
                          : Element::kOther;
    case 4:
      return n == "meta" ? Element::kMeta : Element::kOther;
    case 6:
      return n == "andnot" ? Element::kAndNot : Element::kOther;
    case 7:
      return n == "capture" ? Element::kCapture : Element::kOther;
    default:
      return Element::kOther;
  }
}

// Same order as kKindNames, i.e. as anon::AnonMessage's alternatives.
enum class Kind : std::uint8_t {
  kStatReq, kStatRes, kDescReq, kDescRes, kGetServers, kServers,
  kSearch, kResults, kGetSrc, kFoundSrc, kPublish, kPubAck, kUnknown,
};

Kind kind_of(std::string_view k) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (kKindNames[i] == k) return static_cast<Kind>(i);
  }
  return Kind::kUnknown;
}

constexpr std::string_view kKeyNames[] = {
    "t",    "peer", "dir",  "kind", "users", "files", "name", "desc",
    "n",    "file", "id",   "prov", "port",  "szkb",  "type", "avail",
    "c",    "p",    "h",    "tag",  "cmp",   "v"};

}  // namespace

enum class DatasetReader::Key : std::uint8_t {
  kT, kPeer, kDir, kKind, kUsers, kFiles, kName, kDesc,
  kN, kFile, kId, kProv, kPort, kSzkb, kType, kAvail,
  kC, kP, kH, kTag, kCmp, kV, kOther,
};

/// A start tag's attributes, sorted into one slot per schema key in a
/// single pass.  Views into the token: read them before the next token.
struct DatasetReader::Attrs {
  static_assert(std::size(kKeyNames) == static_cast<std::size_t>(Key::kOther));

  explicit Attrs(const XmlToken& t) {
    for (const auto& [name, value] : t.attrs) {
      const Key k = key_of(name);
      if (k == Key::kOther || has(k)) continue;  // first occurrence wins
      present_ |= bit(k);
      values_[static_cast<std::size_t>(k)] = value;
    }
  }

  [[nodiscard]] bool has(Key k) const { return (present_ & bit(k)) != 0; }
  [[nodiscard]] const std::string_view* get(Key k) const {
    return has(k) ? &values_[static_cast<std::size_t>(k)] : nullptr;
  }

  // Dispatch on length, then first byte, then one compare.
  static Key key_of(std::string_view n) {
    const auto is = [n](Key k) {
      return n == kKeyNames[static_cast<std::size_t>(k)] ? k : Key::kOther;
    };
    switch (n.size()) {
      case 1:
        switch (n[0]) {
          case 't': return Key::kT;
          case 'n': return Key::kN;
          case 'c': return Key::kC;
          case 'p': return Key::kP;
          case 'h': return Key::kH;
          case 'v': return Key::kV;
          default: return Key::kOther;
        }
      case 2:
        return is(Key::kId);
      case 3:
        switch (n[0]) {
          case 'd': return is(Key::kDir);
          case 't': return is(Key::kTag);
          case 'c': return is(Key::kCmp);
          default: return Key::kOther;
        }
      case 4:
        switch (n[0]) {
          case 'p': return n[1] == 'e' ? is(Key::kPeer)
                           : n[1] == 'r' ? is(Key::kProv)
                                         : is(Key::kPort);
          case 'k': return is(Key::kKind);
          case 'f': return is(Key::kFile);
          case 'n': return is(Key::kName);
          case 'd': return is(Key::kDesc);
          case 's': return is(Key::kSzkb);
          case 't': return is(Key::kType);
          default: return Key::kOther;
        }
      case 5:
        switch (n[0]) {
          case 'u': return is(Key::kUsers);
          case 'f': return is(Key::kFiles);
          case 'a': return is(Key::kAvail);
          default: return Key::kOther;
        }
      default:
        return Key::kOther;
    }
  }

 private:
  static std::uint32_t bit(Key k) {
    return std::uint32_t{1} << static_cast<unsigned>(k);
  }

  std::array<std::string_view, static_cast<std::size_t>(Key::kOther)> values_;
  std::uint32_t present_ = 0;
};

DatasetReader::DatasetReader(std::istream& in) : parser_(in) {}

void DatasetReader::fail(std::string message) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(message);
}

/// Attribute `key` as a decimal of type T.  nullopt when absent or not a
/// number (callers report that in their own words); a number too wide for
/// T also fails the document, naming the attribute.
template <typename T>
std::optional<T> DatasetReader::number(const Attrs& attrs, Key key) {
  const std::string_view* raw = attrs.get(key);
  if (raw == nullptr) return std::nullopt;
  const char* end = raw->data() + raw->size();
  T value = 0;
  const auto [ptr, ec] = std::from_chars(raw->data(), end, value);
  if (ptr != end) return std::nullopt;
  if (ec == std::errc::result_out_of_range) {
    fail("attribute " + std::string(kKeyNames[static_cast<std::size_t>(key)]) +
         "=\"" + std::string(*raw) + "\" out of range for u" +
         std::to_string(8 * sizeof(T)));
    return std::nullopt;
  }
  if (ec != std::errc{}) return std::nullopt;
  return value;
}

namespace {

/// A 32-hex-digit hash attribute; nullopt when absent or malformed.
std::optional<anon::StringToken> hash(const std::string_view* raw) {
  if (raw == nullptr) return std::nullopt;
  return Digest128::parse_hex(*raw);
}

}  // namespace

std::optional<anon::AnonEvent> DatasetReader::next() {
  if (!ok() || root_closed_) return std::nullopt;

  for (;;) {
    const XmlToken* token = parser_.next();
    if (token == nullptr) {
      // A document is one <capture> element: input without it (binary
      // data, an empty file) or cut before </capture> is not a dataset.
      if (parser_.ok()) {
        fail(root_seen_ ? "document ends inside <capture> (truncated)"
                        : "no <capture> root element");
      }
      return std::nullopt;
    }
    if (token->kind == XmlToken::Kind::kText) continue;
    const Element element = element_of(token->name);
    if (token->kind == XmlToken::Kind::kEndElement) {
      if (element == Element::kCapture) {
        root_closed_ = true;
        return std::nullopt;
      }
      continue;
    }
    if (element == Element::kCapture) {
      root_seen_ = true;
      continue;
    }
    if (!root_seen_) {
      fail("msg outside <capture> root");
      return std::nullopt;
    }
    if (element != Element::kMsg) {
      fail("unexpected element <" + std::string(token->name) + ">");
      return std::nullopt;
    }

    const Attrs attrs(*token);
    anon::AnonEvent ev;
    auto t = number<SimTime>(attrs, Key::kT);
    auto peer = number<anon::AnonClientId>(attrs, Key::kPeer);
    const std::string_view* dir = attrs.get(Key::kDir);
    if (!t || !peer || dir == nullptr || (*dir != "q" && *dir != "a")) {
      fail("msg missing t/peer/dir");
      return std::nullopt;
    }
    ev.time = *t;
    ev.peer = *peer;
    ev.is_query = (*dir == "q");
    if (!parse_body(attrs, ev.message)) return std::nullopt;
    return ev;
  }
}

/// Recursive expression parse: `start` is the already-consumed start tag.
/// Its attributes are read before the first parser_.next(), which ends the
/// token's life; only its element survives into the child loop.
anon::AnonSearchExprPtr DatasetReader::parse_expr(const XmlToken& start) {
  using ExprKind = proto::SearchExpr::Kind;
  const Element element = element_of(start.name);
  const Attrs attrs(start);
  auto e = std::make_unique<anon::AnonSearchExpr>();

  switch (element) {
    case Element::kKw:
      e->kind = ExprKind::kKeyword;
      e->token = hash(attrs.get(Key::kH));
      if (!e->token) return nullptr;
      break;
    case Element::kMeta:
      e->kind = ExprKind::kMetaString;
      e->token = hash(attrs.get(Key::kH));
      e->tag_token = hash(attrs.get(Key::kTag));
      if (!e->token || !e->tag_token) return nullptr;
      break;
    case Element::kNum: {
      e->kind = ExprKind::kMetaNumeric;
      e->tag_token = hash(attrs.get(Key::kTag));
      auto v = number<std::uint32_t>(attrs, Key::kV);
      const std::string_view* cmp = attrs.get(Key::kCmp);
      if (!e->tag_token || !v || cmp == nullptr ||
          (*cmp != "min" && *cmp != "max")) {
        return nullptr;
      }
      e->number = *v;
      e->cmp = *cmp == "min" ? proto::NumCmp::kMin : proto::NumCmp::kMax;
      break;
    }
    case Element::kAnd:
    case Element::kOr:
    case Element::kAndNot:
      e->kind = ExprKind::kBool;
      e->op = element == Element::kAnd  ? proto::BoolOp::kAnd
              : element == Element::kOr ? proto::BoolOp::kOr
                                        : proto::BoolOp::kAndNot;
      break;
    default:
      return nullptr;
  }

  // Consume children up to the matching end tag.
  int child_index = 0;
  for (;;) {
    const XmlToken* token = parser_.next();
    if (token == nullptr) return nullptr;
    if (token->kind == XmlToken::Kind::kText) continue;
    if (token->kind == XmlToken::Kind::kEndElement) {
      if (element_of(token->name) != element) return nullptr;
      break;
    }
    // Child element: only boolean nodes have children.
    if (e->kind != ExprKind::kBool || child_index > 1) return nullptr;
    auto child = parse_expr(*token);
    if (!child) return nullptr;
    (child_index == 0 ? e->left : e->right) = std::move(child);
    ++child_index;
  }
  if (e->kind == ExprKind::kBool && child_index != 2) return nullptr;
  return e;
}

/// An <f> entry.  Optional attributes may be absent, but one that is
/// present must be well-formed.
bool DatasetReader::parse_file_entry(const XmlToken& t,
                                     anon::AnonFileEntry& f) {
  const Attrs a(t);
  auto id = number<anon::AnonFileId>(a, Key::kId);
  auto prov = number<anon::AnonClientId>(a, Key::kProv);
  if (!id || !prov) return false;
  f.file = *id;
  f.provider = *prov;
  if (a.has(Key::kPort)) {
    auto port = number<std::uint16_t>(a, Key::kPort);
    if (!port) return false;
    f.port = *port;
  }
  f.meta.name = hash(a.get(Key::kName));
  f.meta.size_kb = number<std::uint32_t>(a, Key::kSzkb);
  f.meta.type = hash(a.get(Key::kType));
  f.meta.availability = number<std::uint32_t>(a, Key::kAvail);
  return a.has(Key::kName) == f.meta.name.has_value() &&
         a.has(Key::kSzkb) == f.meta.size_kb.has_value() &&
         a.has(Key::kType) == f.meta.type.has_value() &&
         a.has(Key::kAvail) == f.meta.availability.has_value();
}

/// A self-closing child's EndElement, which the parser emits after it.
bool DatasetReader::expect_end(const char* message) {
  const XmlToken* end = parser_.next();
  if (end == nullptr || end->kind != XmlToken::Kind::kEndElement) {
    fail(message);
    return false;
  }
  return true;
}

bool DatasetReader::parse_body(const Attrs& msg, anon::AnonMessage& out) {
  const std::string_view* kind_attr = msg.get(Key::kKind);
  if (kind_attr == nullptr) {
    fail("msg missing kind");
    return false;
  }
  const Kind kind = kind_of(*kind_attr);

  bool want_children = false;
  switch (kind) {
    case Kind::kStatReq:
      out = anon::AServStatReq{};
      break;
    case Kind::kStatRes: {
      auto users = number<std::uint32_t>(msg, Key::kUsers);
      auto files = number<std::uint32_t>(msg, Key::kFiles);
      if (!users || !files) {
        fail("statres missing users/files");
        return false;
      }
      out = anon::AServStatRes{*users, *files};
      break;
    }
    case Kind::kDescReq:
      out = anon::AServerDescReq{};
      break;
    case Kind::kDescRes: {
      auto name = hash(msg.get(Key::kName));
      auto desc = hash(msg.get(Key::kDesc));
      if (!name || !desc) {
        fail("descres missing name/desc");
        return false;
      }
      out = anon::AServerDescRes{*name, *desc};
      break;
    }
    case Kind::kGetServers:
      out = anon::AGetServerList{};
      break;
    case Kind::kServers: {
      auto n = number<std::uint32_t>(msg, Key::kN);
      if (!n) {
        fail("servers missing n");
        return false;
      }
      out = anon::AServerList{*n};
      break;
    }
    case Kind::kSearch:
    case Kind::kResults:
    case Kind::kGetSrc:
    case Kind::kFoundSrc:
    case Kind::kPublish:
      want_children = true;
      break;
    case Kind::kPubAck: {
      auto n = number<std::uint32_t>(msg, Key::kN);
      if (!n) {
        fail("puback missing n");
        return false;
      }
      out = anon::APublishAck{*n};
      break;
    }
    case Kind::kUnknown:
      fail("unknown msg kind: " + std::string(*kind_attr));
      return false;
  }

  if (!want_children) {
    // Consume to </msg>.
    for (;;) {
      const XmlToken* token = parser_.next();
      if (token == nullptr) {
        fail("unterminated msg");
        return false;
      }
      if (token->kind == XmlToken::Kind::kEndElement &&
          element_of(token->name) == Element::kMsg) {
        break;
      }
      if (token->kind == XmlToken::Kind::kStartElement) {
        fail("unexpected child in <msg kind=\"" +
             std::string(kKindNames[static_cast<std::size_t>(kind)]) + "\">");
        return false;
      }
    }
    return true;
  }

  // Children-bearing kinds.
  anon::AFileSearchReq search;
  anon::AFileSearchRes results;
  anon::AGetSourcesReq getsrc;
  anon::AFoundSourcesRes foundsrc;
  anon::APublishReq publish;

  if (kind == Kind::kFoundSrc) {
    auto file = number<anon::AnonFileId>(msg, Key::kFile);
    if (!file) {
      fail("foundsrc missing file");
      return false;
    }
    foundsrc.file = *file;
  }

  for (;;) {
    const XmlToken* token = parser_.next();
    if (token == nullptr) {
      fail("unterminated msg");
      return false;
    }
    if (token->kind == XmlToken::Kind::kText) continue;
    const Element element = element_of(token->name);
    if (token->kind == XmlToken::Kind::kEndElement) {
      if (element == Element::kMsg) break;
      fail("mismatched end tag </" + std::string(token->name) + ">");
      return false;
    }

    if (kind == Kind::kSearch) {
      search.expr = parse_expr(*token);
      if (search.expr == nullptr) {
        fail("malformed search expression");
        return false;
      }
    } else if (kind == Kind::kResults || kind == Kind::kPublish) {
      if (element != Element::kF) {
        fail("expected <f> entry");
        return false;
      }
      anon::AnonFileEntry entry;
      if (!parse_file_entry(*token, entry)) {
        fail("malformed <f> entry");
        return false;
      }
      (kind == Kind::kResults ? results.results : publish.files)
          .push_back(std::move(entry));
      if (!token->self_closing) {
        fail("<f> must be empty");
        return false;
      }
      if (!expect_end("expected </f>")) return false;
    } else if (kind == Kind::kGetSrc) {
      if (element != Element::kF) {
        fail("expected <f> entry");
        return false;
      }
      auto id = number<anon::AnonFileId>(Attrs(*token), Key::kId);
      if (!id) {
        fail("<f> missing id");
        return false;
      }
      getsrc.files.push_back(*id);
      if (!token->self_closing) {
        fail("<f> must be empty");
        return false;
      }
      if (!expect_end("expected </f>")) return false;
    } else {  // foundsrc
      if (element != Element::kS) {
        fail("expected <s> source");
        return false;
      }
      const Attrs a(*token);
      auto c = number<anon::AnonClientId>(a, Key::kC);
      auto p = number<std::uint16_t>(a, Key::kP);
      if (!c || !p) {
        fail("<s> missing c/p");
        return false;
      }
      foundsrc.sources.push_back({*c, *p});
      if (!token->self_closing) {
        fail("<s> must be empty");
        return false;
      }
      if (!expect_end("expected </s>")) return false;
    }
  }

  switch (kind) {
    case Kind::kSearch:
      if (search.expr == nullptr) {
        fail("search without expression");
        return false;
      }
      out = std::move(search);
      break;
    case Kind::kResults:
      out = std::move(results);
      break;
    case Kind::kGetSrc:
      out = std::move(getsrc);
      break;
    case Kind::kFoundSrc:
      out = std::move(foundsrc);
      break;
    default:
      out = std::move(publish);
      break;
  }
  return true;
}

}  // namespace dtr::xmlio
