#ifndef sxml_h
#define sxml_h

/// @file sxml.h
/// A small well-formed-XML DOM parser sufficient for SENSEI's run-time
/// configuration files: elements, attributes, nested children, text
/// content, comments, XML declarations, and the five predefined entities.
/// Parse errors throw sxml::ParseError with a line number.

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace sxml
{

/// Error thrown on malformed input.
class ParseError : public std::runtime_error
{
public:
  ParseError(const std::string &what, int line)
    : std::runtime_error("XML parse error at line " + std::to_string(line) +
                         ": " + what),
      Line_(line)
  {
  }

  int Line() const noexcept { return this->Line_; }

private:
  int Line_ = 0;
};

/// One element in the document tree.
class Element
{
public:
  /// Tag name.
  const std::string &Name() const noexcept { return this->Name_; }

  /// Concatenated character data directly inside this element (trimmed).
  const std::string &Text() const noexcept { return this->Text_; }

  /// All attributes, keyed by name (lexicographic iteration order; the
  /// serializer emits them in this order, so output is deterministic).
  const std::map<std::string, std::string> &Attributes() const noexcept
  {
    return this->Attrs_;
  }

  /// True when the attribute is present.
  bool HasAttribute(const std::string &key) const
  {
    return this->Attrs_.count(key) > 0;
  }

  /// Attribute value, or `fallback` when absent.
  std::string Attribute(const std::string &key,
                        const std::string &fallback = std::string()) const;

  /// Attribute parsed as integer; `fallback` when absent or malformed.
  long long AttributeInt(const std::string &key, long long fallback = 0) const;

  /// Attribute parsed as double; `fallback` when absent or malformed.
  double AttributeDouble(const std::string &key, double fallback = 0.0) const;

  /// Attribute parsed as boolean (1/0, true/false, yes/no, on/off).
  bool AttributeBool(const std::string &key, bool fallback = false) const;

  /// Child elements in document order.
  const std::vector<std::unique_ptr<Element>> &Children() const noexcept
  {
    return this->Children_;
  }

  /// First child with the given tag name, or nullptr.
  const Element *FirstChild(const std::string &name) const;

  /// Mutable first child with the given tag name, or nullptr.
  Element *FirstChild(const std::string &name);

  /// All children with the given tag name.
  std::vector<const Element *> ChildrenNamed(const std::string &name) const;

  // mutation (used by the parser, the config emitters, and tests)
  void SetName(const std::string &n) { this->Name_ = n; }
  void SetText(const std::string &t) { this->Text_ = t; }
  void SetAttribute(const std::string &k, const std::string &v)
  {
    this->Attrs_[k] = v;
  }

  /// Typed attribute setters, symmetric with AttributeInt /
  /// AttributeDouble / AttributeBool (named methods rather than
  /// SetAttribute overloads: a string literal would otherwise prefer the
  /// pointer-to-bool conversion). Doubles are formatted with the fewest
  /// digits that parse back to the identical value, so emitted configs
  /// round-trip exactly and stay human readable.
  void SetAttributeInt(const std::string &k, long long v);
  void SetAttributeDouble(const std::string &k, double v);
  void SetAttributeBool(const std::string &k, bool v);

  /// Drop every attribute (an emitter taking full ownership of an
  /// element it may have inherited from a hand-written document).
  void ClearAttributes() { this->Attrs_.clear(); }

  Element *AddChild(const std::string &name);

  /// First child with the given tag name, appended if absent.
  Element *FindOrAddChild(const std::string &name);

private:
  std::string Name_;
  std::string Text_;
  std::map<std::string, std::string> Attrs_;
  std::vector<std::unique_ptr<Element>> Children_;
};

/// Parse a document from a string; returns the root element.
std::unique_ptr<Element> Parse(const std::string &text);

/// Parse a document from a file; throws std::runtime_error when the file
/// cannot be read, ParseError on malformed content.
std::unique_ptr<Element> ParseFile(const std::string &path);

/// Parse the configuration boolean vocabulary (1/true/yes/on,
/// 0/false/no/off) into `value`; false when `text` is neither.
bool ParseBool(const std::string &text, bool &value);

/// Serialize an element tree (round-trip/diagnostics).
std::string Serialize(const Element &root, int indent = 0);

} // namespace sxml

#endif
