#include "xmlio/parser.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

namespace dtr::xmlio {

namespace {

enum : std::uint8_t { kNameChar = 1, kSpaceChar = 2 };

// Name characters are [A-Za-z0-9_:.-]; spaces are the C locale's isspace().
constexpr std::array<std::uint8_t, 256> make_classes() {
  std::array<std::uint8_t, 256> t{};
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kNameChar;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kNameChar;
  for (int c = '0'; c <= '9'; ++c) t[c] = kNameChar;
  for (char c : {'_', '-', ':', '.'}) {
    t[static_cast<unsigned char>(c)] = kNameChar;
  }
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    t[static_cast<unsigned char>(c)] = kSpaceChar;
  return t;
}

constexpr std::array<std::uint8_t, 256> kClasses = make_classes();

const char* skip_class(const char* p, const char* end, std::uint8_t cls) {
  while (p != end && (kClasses[static_cast<unsigned char>(*p)] & cls) != 0) ++p;
  return p;
}

const char* find(const char* p, const char* end, char c) {
  return static_cast<const char*>(
      std::memchr(p, c, static_cast<std::size_t>(end - p)));
}

bool is_blank(std::string_view text) {
  return text.find_first_not_of(" \t\r\n") == std::string_view::npos;
}

}  // namespace

XmlParser::XmlParser(std::istream& in)
    : in_(in.rdbuf()), window_(kBlockSize) {
  pos_ = end_ = window_.data();
}

XmlParser::Scan XmlParser::fail(std::string message) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(message);
  return Scan::kError;
}

XmlParser::Scan XmlParser::truncated(const char* message) {
  return eof_ ? fail(message) : Scan::kNeedMore;
}

void XmlParser::refill() {
  // Everything before pos_ belongs to tokens already handed out, which the
  // caller gave up by calling next(): keep only the partial token.
  const auto kept = static_cast<std::size_t>(end_ - pos_);
  if (pos_ != window_.data()) std::memmove(window_.data(), pos_, kept);
  if (kept == window_.size()) window_.resize(window_.size() * 2);
  // One read normally fills the window.  A stream that hands out short
  // reads is read until the partial token's size again arrives, so a long
  // token is rescanned O(log n) times, not once per read.
  const std::size_t want =
      std::min(window_.size(), kept + std::max(kept, std::size_t{1}));
  std::size_t filled = kept;
  while (filled < want) {
    const std::streamsize got =
        in_ == nullptr
            ? 0
            : in_->sgetn(window_.data() + filled,
                         static_cast<std::streamsize>(window_.size() - filled));
    if (got <= 0) {
      eof_ = true;
      break;
    }
    filled += static_cast<std::size_t>(got);
  }
  pos_ = window_.data();
  end_ = pos_ + filled;
}

bool XmlParser::decode_entities(std::string_view raw,
                                std::string_view& decoded) {
  // Decoding only shrinks, so reserving the window's unconsumed bytes up
  // front fits every value of the current token: later values never
  // reallocate the buffer under earlier ones.
  if (scratch_.empty()) scratch_.reserve(static_cast<std::size_t>(end_ - pos_));
  const std::size_t start = scratch_.size();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      scratch_.push_back(raw[i]);
      continue;
    }
    const std::size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      fail("unterminated entity");
      return false;
    }
    const std::string_view entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      scratch_.push_back('&');
    } else if (entity == "lt") {
      scratch_.push_back('<');
    } else if (entity == "gt") {
      scratch_.push_back('>');
    } else if (entity == "quot") {
      scratch_.push_back('"');
    } else if (entity == "apos") {
      scratch_.push_back('\'');
    } else {
      fail("unknown entity: " + std::string(entity));
      return false;
    }
    i = semi;
  }
  decoded = std::string_view(scratch_).substr(start);
  return true;
}

const XmlToken* XmlParser::next() {
  if (!ok_) return nullptr;
  if (pending_end_) {
    // The name still views the start tag, which no refill has moved.
    pending_end_ = false;
    token_.kind = XmlToken::Kind::kEndElement;
    token_.attrs.clear();
    token_.self_closing = false;
    return &token_;
  }
  for (;;) {
    switch (scan()) {
      case Scan::kToken:
        return &token_;
      case Scan::kSkipped:
        break;
      case Scan::kNeedMore:
        refill();
        break;
      case Scan::kEnd:
      case Scan::kError:
        return nullptr;
    }
  }
}

// Each scan starts at pos_ and moves it past the token only on success; a
// token cut by the window's end returns kNeedMore and is rescanned whole
// after refill(), so every view in token_ points into one stable window.
XmlParser::Scan XmlParser::scan() {
  scratch_.clear();
  if (pos_ == end_) return eof_ ? Scan::kEnd : Scan::kNeedMore;
  return *pos_ == '<' ? scan_tag() : scan_text();
}

XmlParser::Scan XmlParser::scan_text() {
  const char* lt = find(pos_, end_, '<');
  if (lt == nullptr && !eof_) return Scan::kNeedMore;
  const char* stop = lt != nullptr ? lt : end_;
  const std::string_view raw(pos_, static_cast<std::size_t>(stop - pos_));
  if (is_blank(raw)) {
    pos_ = stop;
    return lt != nullptr ? Scan::kSkipped : Scan::kEnd;
  }
  token_.kind = XmlToken::Kind::kText;
  token_.name = {};
  token_.attrs.clear();
  token_.self_closing = false;
  token_.text = raw;
  if (raw.find('&') != std::string_view::npos &&
      !decode_entities(raw, token_.text)) {
    return Scan::kError;
  }
  pos_ = stop;
  return Scan::kToken;
}

XmlParser::Scan XmlParser::scan_tag() {
  const char* p = pos_ + 1;
  if (p == end_ && !eof_) return Scan::kNeedMore;
  if (p != end_) {
    if (*p == '?') return scan_declaration(p);
    if (*p == '!') return scan_comment(p);
    if (*p == '/') return scan_end_tag(p + 1);
  }
  return scan_start_tag(p);
}

// `p` is at the '?' after '<'; the first "?>" from there closes it.
XmlParser::Scan XmlParser::scan_declaration(const char* p) {
  for (const char* q = p + 1; (q = find(q, end_, '>')) != nullptr; ++q) {
    if (q[-1] == '?') {
      pos_ = q + 1;
      return Scan::kSkipped;
    }
  }
  return truncated("unterminated declaration");
}

// `p` is at the '!' after '<'; "<!--" opens, the first "-->" after it closes.
XmlParser::Scan XmlParser::scan_comment(const char* p) {
  for (int i = 1; i <= 2; ++i) {
    if (p + i == end_) return truncated("malformed comment");
    if (p[i] != '-') return fail("malformed comment");
  }
  const char* body = p + 3;
  for (const char* q = body; (q = find(q, end_, '>')) != nullptr; ++q) {
    if (q - body >= 2 && q[-1] == '-' && q[-2] == '-') {
      pos_ = q + 1;
      return Scan::kSkipped;
    }
  }
  return truncated("unterminated comment");
}

// `p` is just past "</".
XmlParser::Scan XmlParser::scan_end_tag(const char* p) {
  const char* name = p;
  p = skip_class(p, end_, kNameChar);
  if (p == end_ && !eof_) return Scan::kNeedMore;
  if (p == name) return fail("empty name");
  const std::string_view n(name, static_cast<std::size_t>(p - name));
  p = skip_class(p, end_, kSpaceChar);
  if (p == end_) return truncated("expected '>'");
  if (*p != '>') return fail("expected '>'");
  token_.kind = XmlToken::Kind::kEndElement;
  token_.name = n;
  token_.attrs.clear();
  token_.text = {};
  token_.self_closing = false;
  pos_ = p + 1;
  return Scan::kToken;
}

// `p` is just past '<'.
XmlParser::Scan XmlParser::scan_start_tag(const char* p) {
  const char* name = p;
  p = skip_class(p, end_, kNameChar);
  if (p == end_ && !eof_) return Scan::kNeedMore;
  if (p == name) return fail("empty name");
  token_.kind = XmlToken::Kind::kStartElement;
  token_.name = std::string_view(name, static_cast<std::size_t>(p - name));
  token_.attrs.clear();
  token_.text = {};
  token_.self_closing = false;
  for (;;) {
    p = skip_class(p, end_, kSpaceChar);
    if (p == end_) return truncated("unterminated start tag");
    if (*p == '>') {
      ++p;
      break;
    }
    if (*p == '/') {
      if (++p == end_) return truncated("expected '>'");
      if (*p != '>') return fail("expected '>'");
      ++p;
      token_.self_closing = true;
      break;
    }
    // Attribute.
    const char* key = p;
    p = skip_class(p, end_, kNameChar);
    if (p == end_ && !eof_) return Scan::kNeedMore;
    if (p == key) return fail("empty name");
    const std::string_view k(key, static_cast<std::size_t>(p - key));
    p = skip_class(p, end_, kSpaceChar);
    if (p == end_) return truncated("expected '='");
    if (*p++ != '=') return fail("expected '='");
    p = skip_class(p, end_, kSpaceChar);
    if (p == end_) return truncated("expected '\"'");
    if (*p++ != '"') return fail("expected '\"'");
    const char* close = find(p, end_, '"');
    if (close == nullptr) return truncated("unterminated attribute value");
    std::string_view value(p, static_cast<std::size_t>(close - p));
    if (value.find('&') != std::string_view::npos &&
        !decode_entities(value, value)) {
      return Scan::kError;
    }
    token_.attrs.emplace_back(k, value);
    p = close + 1;
  }
  pending_end_ = token_.self_closing;
  pos_ = p;
  return Scan::kToken;
}

}  // namespace dtr::xmlio
