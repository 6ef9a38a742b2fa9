// Minimal streaming XML pull parser.
//
// Supports the subset the dataset schema uses: elements, attributes
// (double-quoted), text nodes, self-closing tags, comments, the XML
// declaration, and the five standard entities.  No DTDs, namespaces or
// CDATA — the writer never produces them.  One token at a time, so a
// multi-gigabyte dataset can be analysed without loading it into memory.
//
// Input is pulled from the stream's buffer in 64 KiB blocks into a window
// the parser owns.  Tokens are views: their name, attribute keys and
// values point into that window (or, for a value holding an entity, into
// a parser-owned decode buffer).  A token stays valid until the next
// next() call; copy what must outlive it.
#pragma once

#include <cstddef>
#include <istream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dtr::xmlio {

struct XmlToken {
  enum class Kind { kStartElement, kEndElement, kText };

  Kind kind = Kind::kText;
  std::string_view name;      // element tokens
  std::string_view text;      // text tokens
  bool self_closing = false;  // start tokens
  // Start tokens: (key, value) in document order.
  std::vector<std::pair<std::string_view, std::string_view>> attrs;
};

class XmlParser {
 public:
  static constexpr std::size_t kBlockSize = 64 * 1024;

  explicit XmlParser(std::istream& in);

  /// Next token, or nullptr at end of input.  The token lives in the
  /// parser and is valid until the following next() call.  A syntax error
  /// sets ok() to false and ends the stream.
  const XmlToken* next();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  // Outcome of one attempt to scan a token from the window.
  enum class Scan { kToken, kSkipped, kNeedMore, kEnd, kError };

  Scan scan();
  Scan scan_text();
  Scan scan_tag();
  Scan scan_start_tag(const char* p);
  Scan scan_end_tag(const char* p);
  Scan scan_comment(const char* p);
  Scan scan_declaration(const char* p);
  // The window ran out mid-token: ask for more input, or at end of input
  // fail with `message` (the same message the token's syntax error gives).
  Scan truncated(const char* message);
  Scan fail(std::string message);
  bool decode_entities(std::string_view raw, std::string_view& decoded);
  void refill();

  std::streambuf* in_;
  std::vector<char> window_;
  const char* pos_ = nullptr;  // first unconsumed byte
  const char* end_ = nullptr;  // one past the last buffered byte
  bool eof_ = false;
  XmlToken token_;
  std::string scratch_;  // entity-decoded values of the current token
  bool ok_ = true;
  std::string error_;
  // The last start tag was self-closing: emit its EndElement next.
  bool pending_end_ = false;
};

}  // namespace dtr::xmlio
