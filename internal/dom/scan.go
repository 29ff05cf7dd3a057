package dom

import (
	"fmt"
	"io"
	"strings"
)

// This file implements the package's XML scanner: a pull tokenizer over one
// immutable string copy of the document.  The original XMIT used Xerces-C,
// a native-code parser; this scanner plays that role.  It yields start-tag,
// end-tag and character-data tokens whose names and attribute values are
// substrings of the document, so a token costs no allocation beyond the
// reused attribute buffer.  ParseBytes builds an element tree from the
// tokens; internal/xsd translates schemas straight off them, with no tree.
// The tree is checked against ParseStd (encoding/xml) by differential
// tests.  The supported dialect is the one metadata documents use:
// elements, attributes, namespaces, character data, CDATA, comments,
// processing instructions, a DOCTYPE prologue, and the standard entities.

// Kind classifies a token.
type Kind uint8

const (
	// StartElement opens an element.  A self-closing tag yields a
	// StartElement followed by its EndElement.
	StartElement Kind = iota + 1
	// EndElement closes the innermost open element.
	EndElement
	// CharData is the character data between two tags inside the root
	// element: text with entities decoded and CDATA sections, comments and
	// processing instructions removed.
	CharData
)

// Token is one unit of a document.  The tokenizer reuses the token and its
// Attrs slice; the strings in it stay valid.
type Token struct {
	Kind Kind
	// Space is the resolved namespace URI and Local the local name of the
	// element a StartElement or EndElement opens or closes.
	Space, Local string
	// Attrs holds a StartElement's attributes in document order, namespace
	// declarations excluded.
	Attrs []Attr
	// Text is a CharData token's character data, untrimmed.
	Text string
}

// Attr returns the value of the token's named attribute (matching the local
// name; any namespace) and whether it is present.
func (t *Token) Attr(local string) (string, bool) {
	return attrValue(t.Attrs, local)
}

// Tokenizer reads a document one token at a time.  It enforces
// well-formedness as it goes (matching end tags, one root element, the
// nesting limit, declared namespace prefixes), so a consumer that reads to
// io.EOF has seen a complete, well-formed document.
type Tokenizer struct {
	data string
	pos  int
	err  error

	tok       Token         // the token Next returns, refilled by every call
	open      []openElement // elements started and not yet ended
	rootSeen  bool
	closeSelf bool // the last StartElement was self-closing: its EndElement is due

	attrs []Attr // attribute buffer, reused by every StartElement
	text  []byte // character data that is not one contiguous substring

	// Namespace scopes: each element pushes the bindings it declares.
	nsStack  []nsBinding
	nsMarks  []int
	defaults []string // default namespace stack
}

type openElement struct{ space, local string }

type nsBinding struct {
	prefix string
	uri    string
}

// NewTokenizer returns a tokenizer over doc.  Token strings are substrings
// of doc.
func NewTokenizer(doc string) *Tokenizer {
	return &Tokenizer{data: doc, defaults: []string{""}}
}

// ParseBytes parses an XML document into a tree.  The tree's strings share
// one copy of data.
func ParseBytes(data []byte) (*Document, error) {
	return build(NewTokenizer(string(data)))
}

// ParseString parses a document held in a string; the tree's strings are
// substrings of s.
func ParseString(s string) (*Document, error) {
	return build(NewTokenizer(s))
}

// build assembles the element tree from a tokenizer's tokens.
func build(t *Tokenizer) (*Document, error) {
	// Every token but the root's StartElement arrives inside the root, so
	// cur is set for EndElement and CharData.
	var root, cur *Element
	for {
		tok, err := t.Next()
		if err == io.EOF {
			return &Document{Root: root}, nil
		}
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case StartElement:
			el := &Element{Space: tok.Space, Local: tok.Local, Parent: cur}
			if len(tok.Attrs) > 0 {
				el.Attrs = append([]Attr(nil), tok.Attrs...)
			}
			if cur == nil {
				root = el
			} else {
				cur.Children = append(cur.Children, el)
			}
			cur = el
		case EndElement:
			cur.Text = strings.TrimSpace(cur.Text)
			cur = cur.Parent
		case CharData:
			// Text is trimmed when the element ends, so text that is all
			// space so far is replaced rather than concatenated.
			if strings.TrimSpace(cur.Text) == "" {
				cur.Text = tok.Text
			} else {
				cur.Text += tok.Text
			}
		}
	}
}

func (t *Tokenizer) errf(format string, args ...any) error {
	return fmt.Errorf("dom: offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// Next returns the next token, which stays valid until the following call.
// It returns io.EOF once the root element has ended and the rest of the
// document is consumed; any other error is final.
func (t *Tokenizer) Next() (*Token, error) {
	if t.err == nil {
		t.err = t.next()
	}
	if t.err != nil {
		return nil, t.err
	}
	return &t.tok, nil
}

func (t *Tokenizer) next() error {
	if t.closeSelf {
		t.closeSelf = false
		t.endElement()
		return nil
	}
	text, err := t.charData()
	if err != nil {
		return err
	}
	if text != "" {
		t.tok = Token{Kind: CharData, Text: text}
		return nil
	}
	if t.pos >= len(t.data) {
		if !t.rootSeen {
			return fmt.Errorf("dom: document has no root element")
		}
		if n := len(t.open); n > 0 {
			return fmt.Errorf("dom: unterminated element %s", t.open[n-1].local)
		}
		return io.EOF
	}
	if t.has("</") {
		name, err := t.readEndTag()
		if err != nil {
			return err
		}
		n := len(t.open)
		if n == 0 {
			return t.errf("unbalanced end element </%s>", name)
		}
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		if expect := t.open[n-1].local; name != expect {
			return t.errf("end tag </%s> does not match <%s>", name, expect)
		}
		t.endElement()
		return nil
	}
	selfClose, err := t.readStartTag()
	if err != nil {
		return err
	}
	if len(t.open) >= maxDepth {
		return t.errf("document nested deeper than %d elements", maxDepth)
	}
	if len(t.open) == 0 {
		if t.rootSeen {
			return t.errf("multiple root elements")
		}
		t.rootSeen = true
	}
	t.open = append(t.open, openElement{space: t.tok.Space, local: t.tok.Local})
	t.closeSelf = selfClose
	return nil
}

// endElement closes the innermost open element and its namespace scope.
func (t *Tokenizer) endElement() {
	n := len(t.open) - 1
	el := t.open[n]
	t.open = t.open[:n]
	t.popNS()
	t.tok = Token{Kind: EndElement, Space: el.space, Local: el.local}
}

// charData consumes everything up to the next start or end tag (or EOF):
// text, entity references, CDATA sections, comments, processing
// instructions and DOCTYPE declarations.  It returns the character data when
// inside the root element; outside it the data is dropped.  The common case,
// one run of text with no entities, is a substring of the document.
func (t *Tokenizer) charData() (string, error) {
	inside := len(t.open) > 0
	var first string // the only piece so far
	pieces := 0
	add := func(s string) {
		if !inside || s == "" {
			return
		}
		switch pieces {
		case 0:
			first = s
		case 1:
			t.text = append(append(t.text[:0], first...), s...)
		default:
			t.text = append(t.text, s...)
		}
		pieces++
	}
	for t.pos < len(t.data) {
		if t.data[t.pos] != '<' {
			// The run up to the next markup or entity.
			run := t.pos
			for run < len(t.data) && t.data[run] != '<' && t.data[run] != '&' {
				run++
			}
			if run > t.pos {
				add(newlines(t.data[t.pos:run]))
				t.pos = run
				continue
			}
			// t.data[t.pos] == '&'
			if r, n := decodeEntity(t.data[t.pos:]); n > 0 {
				add(r)
				t.pos += n
			} else {
				add("&")
				t.pos++
			}
			continue
		}
		if t.pos+1 < len(t.data) && t.data[t.pos+1] != '!' && t.data[t.pos+1] != '?' {
			return t.joined(first, pieces), nil // a start or end tag
		}
		switch {
		case t.has("<!--"):
			if err := t.skipUntil("-->"); err != nil {
				return "", err
			}
		case t.has("<![CDATA["):
			start := t.pos + len("<![CDATA[")
			end := indexFrom(t.data, start, "]]>")
			if end < 0 {
				return "", t.errf("unterminated CDATA section")
			}
			add(newlines(t.data[start:end]))
			t.pos = end + 3
		case t.has("<!DOCTYPE"), t.has("<!doctype"):
			if err := t.skipDoctype(); err != nil {
				return "", err
			}
		case t.has("<?"):
			if err := t.skipUntil("?>"); err != nil {
				return "", err
			}
		default:
			return t.joined(first, pieces), nil
		}
	}
	return t.joined(first, pieces), nil
}

// newlines applies XML's end-of-line handling to literal text: "\r\n" and a
// lone "\r" become "\n".
func newlines(s string) string {
	if strings.IndexByte(s, '\r') < 0 {
		return s
	}
	return strings.ReplaceAll(strings.ReplaceAll(s, "\r\n", "\n"), "\r", "\n")
}

func (t *Tokenizer) joined(first string, pieces int) string {
	if pieces > 1 {
		return string(t.text)
	}
	return first
}

func (t *Tokenizer) has(prefix string) bool {
	return strings.HasPrefix(t.data[t.pos:], prefix)
}

func (t *Tokenizer) skipUntil(marker string) error {
	end := indexFrom(t.data, t.pos, marker)
	if end < 0 {
		return t.errf("unterminated %q construct", marker)
	}
	t.pos = end + len(marker)
	return nil
}

func indexFrom(data string, start int, marker string) int {
	i := strings.Index(data[start:], marker)
	if i < 0 {
		return -1
	}
	return start + i
}

// skipDoctype handles an (optionally bracketed) DOCTYPE declaration.
func (t *Tokenizer) skipDoctype() error {
	depth := 0
	for t.pos < len(t.data) {
		switch t.data[t.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				t.pos++
				return nil
			}
		}
		t.pos++
	}
	return t.errf("unterminated DOCTYPE")
}

func (t *Tokenizer) readEndTag() (string, error) {
	t.pos += 2 // "</"
	name, err := t.readName()
	if err != nil {
		return "", err
	}
	t.skipSpace()
	if t.pos >= len(t.data) || t.data[t.pos] != '>' {
		return "", t.errf("malformed end tag </%s", name)
	}
	t.pos++
	return name, nil
}

// readStartTag parses "<name attr=... >" into a StartElement token with
// namespaces resolved, opening the element's namespace scope.  It reports
// whether the tag closes itself.
func (t *Tokenizer) readStartTag() (bool, error) {
	t.pos++ // '<'
	rawName, err := t.readName()
	if err != nil {
		return false, err
	}
	// Raw attributes go into the buffer with the qualified name in Local.
	attrs := t.attrs[:0]
	selfClose := false
	for {
		t.skipSpace()
		if t.pos >= len(t.data) {
			return false, t.errf("unterminated start tag <%s", rawName)
		}
		switch t.data[t.pos] {
		case '>':
			t.pos++
			goto done
		case '/':
			if !t.has("/>") {
				return false, t.errf("stray '/' in tag <%s>", rawName)
			}
			t.pos += 2
			selfClose = true
			goto done
		}
		name, err := t.readName()
		if err != nil {
			return false, err
		}
		t.skipSpace()
		if t.pos >= len(t.data) || t.data[t.pos] != '=' {
			return false, t.errf("attribute %q missing '='", name)
		}
		t.pos++
		t.skipSpace()
		value, err := t.readAttrValue()
		if err != nil {
			return false, err
		}
		attrs = append(attrs, Attr{Local: name, Value: value})
	}
done:
	t.attrs = attrs
	// Open a namespace scope and apply declarations before resolving.
	t.pushNS()
	for _, a := range attrs {
		switch {
		case a.Local == "xmlns":
			t.defaults[len(t.defaults)-1] = a.Value
		case strings.HasPrefix(a.Local, "xmlns:"):
			if a.Value == "" {
				// Undeclaring a prefix is an XML 1.1 feature; the
				// metadata dialect (like XML 1.0 namespaces) forbids it.
				return false, t.errf("empty namespace URI for prefix %q", a.Local[6:])
			}
			t.nsStack = append(t.nsStack, nsBinding{prefix: a.Local[6:], uri: a.Value})
		}
	}
	tok := &t.tok
	*tok = Token{Kind: StartElement}
	prefix, local := splitName(rawName)
	tok.Local = local
	if prefix != "" {
		uri, ok := t.lookupNS(prefix)
		if !ok {
			return false, t.errf("undeclared namespace prefix %q", prefix)
		}
		tok.Space = uri
	} else {
		tok.Space = t.defaults[len(t.defaults)-1]
	}
	// Resolve in place, dropping the declarations: the write index never
	// passes the read index.
	n := 0
	for _, a := range attrs {
		if a.Local == "xmlns" || strings.HasPrefix(a.Local, "xmlns:") {
			continue
		}
		ap, al := splitName(a.Local)
		attr := Attr{Local: al, Value: a.Value}
		if ap != "" {
			uri, ok := t.lookupNS(ap)
			if !ok {
				return false, t.errf("undeclared namespace prefix %q", ap)
			}
			attr.Space = uri
		}
		attrs[n] = attr
		n++
	}
	tok.Attrs = attrs[:n]
	return selfClose, nil
}

func (t *Tokenizer) pushNS() {
	t.nsMarks = append(t.nsMarks, len(t.nsStack))
	t.defaults = append(t.defaults, t.defaults[len(t.defaults)-1])
}

func (t *Tokenizer) popNS() {
	if n := len(t.nsMarks); n > 0 {
		t.nsStack = t.nsStack[:t.nsMarks[n-1]]
		t.nsMarks = t.nsMarks[:n-1]
		t.defaults = t.defaults[:len(t.defaults)-1]
	}
}

func (t *Tokenizer) lookupNS(prefix string) (string, bool) {
	for i := len(t.nsStack) - 1; i >= 0; i-- {
		if t.nsStack[i].prefix == prefix {
			return t.nsStack[i].uri, true
		}
	}
	// The xml: prefix is implicitly bound.
	if prefix == "xml" {
		return "http://www.w3.org/XML/1998/namespace", true
	}
	return "", false
}

func splitName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

func (t *Tokenizer) skipSpace() {
	for t.pos < len(t.data) {
		switch t.data[t.pos] {
		case ' ', '\t', '\r', '\n':
			t.pos++
		default:
			return
		}
	}
}

func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':', c >= 0x80:
		return true
	case !first && (c >= '0' && c <= '9' || c == '-' || c == '.'):
		return true
	}
	return false
}

// readName reads a name of QName shape: at most one colon, neither leading
// nor trailing.
func (t *Tokenizer) readName() (string, error) {
	start := t.pos
	if t.pos >= len(t.data) || !isNameByte(t.data[t.pos], true) {
		return "", t.errf("expected a name")
	}
	colons, colon := 0, 0
	for ; t.pos < len(t.data) && isNameByte(t.data[t.pos], false); t.pos++ {
		if t.data[t.pos] == ':' {
			colons, colon = colons+1, t.pos
		}
	}
	name := t.data[start:t.pos]
	if colons > 1 || colons == 1 && (colon == start || colon == t.pos-1) {
		return "", t.errf("malformed name %q", name)
	}
	return name, nil
}

func (t *Tokenizer) readAttrValue() (string, error) {
	if t.pos >= len(t.data) {
		return "", t.errf("missing attribute value")
	}
	quote := t.data[t.pos]
	if quote != '"' && quote != '\'' {
		return "", t.errf("attribute value must be quoted")
	}
	t.pos++
	start := t.pos
	// Fast path: no entities, no carriage returns.
	for t.pos < len(t.data) {
		c := t.data[t.pos]
		if c == quote {
			v := t.data[start:t.pos]
			t.pos++
			return v, nil
		}
		if c == '&' || c == '\r' {
			return t.readAttrValueSlow(start, quote)
		}
		if c == '<' {
			return "", t.errf("'<' in attribute value")
		}
		t.pos++
	}
	return "", t.errf("unterminated attribute value")
}

func (t *Tokenizer) readAttrValueSlow(start int, quote byte) (string, error) {
	var b strings.Builder
	b.WriteString(t.data[start:t.pos])
	for t.pos < len(t.data) {
		c := t.data[t.pos]
		switch c {
		case quote:
			t.pos++
			return b.String(), nil
		case '&':
			r, n := decodeEntity(t.data[t.pos:])
			if n == 0 {
				return "", t.errf("malformed entity reference")
			}
			b.WriteString(r)
			t.pos += n
		case '<':
			return "", t.errf("'<' in attribute value")
		case '\r':
			b.WriteByte('\n')
			t.pos++
			if t.pos < len(t.data) && t.data[t.pos] == '\n' {
				t.pos++
			}
		default:
			b.WriteByte(c)
			t.pos++
		}
	}
	return "", t.errf("unterminated attribute value")
}

// decodeEntity decodes one entity reference at the start of data, returning
// the replacement text and the number of input bytes consumed (0 if the
// reference is malformed or unknown).
func decodeEntity(data string) (string, int) {
	end := -1
	for i := 1; i < len(data) && i < 12; i++ {
		if data[i] == ';' {
			end = i
			break
		}
	}
	if end < 0 {
		return "", 0
	}
	ref := data[1:end]
	switch ref {
	case "amp":
		return "&", end + 1
	case "lt":
		return "<", end + 1
	case "gt":
		return ">", end + 1
	case "quot":
		return `"`, end + 1
	case "apos":
		return "'", end + 1
	}
	if len(ref) > 1 && ref[0] == '#' {
		var n rune
		digits := ref[1:]
		base := 10
		if digits[0] == 'x' || digits[0] == 'X' {
			base = 16
			digits = digits[1:]
		}
		if digits == "" {
			return "", 0
		}
		for _, c := range digits {
			var d rune
			switch {
			case c >= '0' && c <= '9':
				d = c - '0'
			case base == 16 && c >= 'a' && c <= 'f':
				d = c - 'a' + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = c - 'A' + 10
			default:
				return "", 0
			}
			n = n*rune(base) + d
			if n > 0x10FFFF {
				return "", 0
			}
		}
		return string(n), end + 1
	}
	return "", 0
}
