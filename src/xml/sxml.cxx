#include "sxml.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sxml
{

// --- Element ----------------------------------------------------------------

std::string Element::Attribute(const std::string &key,
                               const std::string &fallback) const
{
  auto it = this->Attrs_.find(key);
  return it == this->Attrs_.end() ? fallback : it->second;
}

long long Element::AttributeInt(const std::string &key, long long fallback) const
{
  auto it = this->Attrs_.find(key);
  if (it == this->Attrs_.end())
    return fallback;
  char *end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  return end && *end == '\0' && !it->second.empty() ? v : fallback;
}

double Element::AttributeDouble(const std::string &key, double fallback) const
{
  auto it = this->Attrs_.find(key);
  if (it == this->Attrs_.end())
    return fallback;
  char *end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return end && *end == '\0' && !it->second.empty() ? v : fallback;
}

bool Element::AttributeBool(const std::string &key, bool fallback) const
{
  auto it = this->Attrs_.find(key);
  if (it == this->Attrs_.end())
    return fallback;
  bool v = fallback;
  return ParseBool(it->second, v) ? v : fallback;
}

bool ParseBool(const std::string &text, bool &value)
{
  if (text == "1" || text == "true" || text == "yes" || text == "on")
    value = true;
  else if (text == "0" || text == "false" || text == "no" || text == "off")
    value = false;
  else
    return false;
  return true;
}

const Element *Element::FirstChild(const std::string &name) const
{
  for (const auto &c : this->Children_)
    if (c->Name() == name)
      return c.get();
  return nullptr;
}

Element *Element::FirstChild(const std::string &name)
{
  for (const auto &c : this->Children_)
    if (c->Name() == name)
      return c.get();
  return nullptr;
}

void Element::SetAttributeInt(const std::string &k, long long v)
{
  this->Attrs_[k] = std::to_string(v);
}

void Element::SetAttributeDouble(const std::string &k, double v)
{
  // the fewest significant digits that parse back to the identical value
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec)
  {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v)
      break;
  }
  this->Attrs_[k] = buf;
}

void Element::SetAttributeBool(const std::string &k, bool v)
{
  this->Attrs_[k] = v ? "1" : "0";
}

std::vector<const Element *> Element::ChildrenNamed(const std::string &name) const
{
  std::vector<const Element *> out;
  for (const auto &c : this->Children_)
    if (c->Name() == name)
      out.push_back(c.get());
  return out;
}

Element *Element::AddChild(const std::string &name)
{
  this->Children_.emplace_back(std::make_unique<Element>());
  this->Children_.back()->SetName(name);
  return this->Children_.back().get();
}

Element *Element::FindOrAddChild(const std::string &name)
{
  if (Element *c = this->FirstChild(name))
    return c;
  return this->AddChild(name);
}

// --- parser -------------------------------------------------------------------

namespace
{

class Parser
{
public:
  explicit Parser(const std::string &text) : Text_(text) {}

  std::unique_ptr<Element> Run()
  {
    this->SkipProlog();
    auto root = std::make_unique<Element>();
    this->ParseElement(*root);
    this->SkipMisc();
    if (this->Pos_ < this->Text_.size())
      this->Fail("content after document element");
    return root;
  }

private:
  [[noreturn]] void Fail(const std::string &what) const
  {
    throw ParseError(what, this->Line_);
  }

  bool Eof() const { return this->Pos_ >= this->Text_.size(); }

  char Peek() const { return this->Eof() ? '\0' : this->Text_[this->Pos_]; }

  char Next()
  {
    if (this->Eof())
      this->Fail("unexpected end of input");
    const char c = this->Text_[this->Pos_++];
    if (c == '\n')
      ++this->Line_;
    return c;
  }

  void Expect(char c)
  {
    const char got = this->Next();
    if (got != c)
      this->Fail(std::string("expected '") + c + "', got '" + got + "'");
  }

  bool Consume(const std::string &s)
  {
    if (this->Text_.compare(this->Pos_, s.size(), s) != 0)
      return false;
    for (std::size_t i = 0; i < s.size(); ++i)
      this->Next();
    return true;
  }

  void SkipWhitespace()
  {
    while (!this->Eof() && std::isspace(static_cast<unsigned char>(this->Peek())))
      this->Next();
  }

  void SkipComment()
  {
    // the <!-- is already consumed
    while (!this->Consume("-->"))
      this->Next();
  }

  void SkipProlog()
  {
    this->SkipMisc();
    if (this->Consume("<?xml"))
    {
      while (!this->Consume("?>"))
        this->Next();
      this->SkipMisc();
    }
  }

  void SkipMisc()
  {
    for (;;)
    {
      this->SkipWhitespace();
      if (this->Consume("<!--"))
      {
        this->SkipComment();
        continue;
      }
      return;
    }
  }

  static bool NameChar(char c)
  {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  std::string ParseName()
  {
    std::string name;
    if (!NameChar(this->Peek()))
      this->Fail("expected a name");
    while (NameChar(this->Peek()))
      name.push_back(this->Next());
    return name;
  }

  std::string DecodeEntities(const std::string &raw)
  {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
    {
      if (raw[i] != '&')
      {
        out.push_back(raw[i]);
        continue;
      }
      const std::size_t semi = raw.find(';', i);
      if (semi == std::string::npos)
        this->Fail("unterminated entity");
      const std::string ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") out.push_back('<');
      else if (ent == "gt") out.push_back('>');
      else if (ent == "amp") out.push_back('&');
      else if (ent == "quot") out.push_back('"');
      else if (ent == "apos") out.push_back('\'');
      else this->Fail("unknown entity '&" + ent + ";'");
      i = semi;
    }
    return out;
  }

  void ParseAttributes(Element &el)
  {
    for (;;)
    {
      this->SkipWhitespace();
      const char c = this->Peek();
      if (c == '>' || c == '/' || c == '?')
        return;
      const std::string key = this->ParseName();
      this->SkipWhitespace();
      this->Expect('=');
      this->SkipWhitespace();
      const char quote = this->Next();
      if (quote != '"' && quote != '\'')
        this->Fail("attribute value must be quoted");
      std::string value;
      while (this->Peek() != quote)
        value.push_back(this->Next());
      this->Expect(quote);
      el.SetAttribute(key, this->DecodeEntities(value));
    }
  }

  static std::string Trim(const std::string &s)
  {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
      ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
      --e;
    return s.substr(b, e - b);
  }

  void ParseElement(Element &el)
  {
    this->SkipMisc();
    this->Expect('<');
    el.SetName(this->ParseName());
    this->ParseAttributes(el);

    if (this->Consume("/>"))
      return;
    this->Expect('>');

    std::string text;
    for (;;)
    {
      if (this->Consume("<!--"))
      {
        this->SkipComment();
        continue;
      }
      if (this->Text_.compare(this->Pos_, 2, "</") == 0)
      {
        this->Consume("</");
        const std::string close = this->ParseName();
        if (close != el.Name())
          this->Fail("mismatched close tag '</" + close + ">' for <" +
                     el.Name() + ">");
        this->SkipWhitespace();
        this->Expect('>');
        el.SetText(this->DecodeEntities(Trim(text)));
        return;
      }
      if (this->Peek() == '<')
      {
        auto *child = el.AddChild(std::string());
        this->ParseElement(*child);
        continue;
      }
      text.push_back(this->Next());
    }
  }

  const std::string &Text_;
  std::size_t Pos_ = 0;
  int Line_ = 1;
};

void SerializeImpl(const Element &el, std::ostringstream &oss, int depth,
                   int indent)
{
  const std::string pad(static_cast<std::size_t>(depth * indent), ' ');
  oss << pad << '<' << el.Name();
  for (const auto &kv : el.Attributes())
    oss << ' ' << kv.first << "=\"" << kv.second << '"';

  if (el.Children().empty() && el.Text().empty())
  {
    oss << "/>\n";
    return;
  }

  oss << '>';
  if (!el.Text().empty())
    oss << el.Text();
  if (!el.Children().empty())
  {
    oss << '\n';
    for (const auto &c : el.Children())
      SerializeImpl(*c, oss, depth + 1, indent);
    oss << pad;
  }
  oss << "</" << el.Name() << ">\n";
}

} // namespace

std::unique_ptr<Element> Parse(const std::string &text)
{
  Parser p(text);
  return p.Run();
}

std::unique_ptr<Element> ParseFile(const std::string &path)
{
  std::ifstream f(path);
  if (!f)
    throw std::runtime_error("sxml::ParseFile: cannot open '" + path + "'");
  std::ostringstream oss;
  oss << f.rdbuf();
  return Parse(oss.str());
}

std::string Serialize(const Element &root, int indent)
{
  std::ostringstream oss;
  SerializeImpl(root, oss, 0, indent > 0 ? indent : 2);
  return oss.str();
}

} // namespace sxml
