package abp

import (
	"fmt"
	"strings"
)

// Element is the view of a DOM element the selector matcher needs. The
// browser substrate adapts its DOM nodes to this type so that abp does not
// depend on the web packages.
type Element struct {
	// Tag is the lower-case tag name ("div", "script", …).
	Tag string
	// ID is the element's id attribute ("" when absent).
	ID string
	// Classes lists the element's class attribute tokens.
	Classes []string
	// Attrs holds the remaining attributes (lower-case names).
	Attrs map[string]string
}

// HasClass reports whether the element carries the given class token.
func (e *Element) HasClass(c string) bool {
	for _, x := range e.Classes {
		if x == c {
			return true
		}
	}
	return false
}

// attrOp is an attribute predicate operator in a selector.
type attrOp int

const (
	attrExists attrOp = iota // [attr]
	attrEquals               // [attr="v"]
	attrPrefix               // [attr^="v"]
	attrSubstr               // [attr*="v"]
)

// attrPred is one [attr…] predicate of a selector.
type attrPred struct {
	name string
	op   attrOp
	val  string
}

// Selector is a compound simple CSS selector: an optional tag name followed
// by any number of #id, .class, and [attr] predicates. This covers the
// selector forms anti-adblock filter rules use (Codes 2, 6, 9 in the paper).
// Combinators (descendant, child, …) are not supported; rules using them are
// rejected at parse time.
type Selector struct {
	// Tag is the required tag name, or "" for any tag.
	Tag string
	// ID is the required element id, or "".
	ID string
	// Classes lists required class tokens.
	Classes []string

	attrs []attrPred
}

// ParseSelector parses a compound simple selector such as
// "#noticeMain", ".adblock-msg", "div#overlay", or "div[id=\"bait\"]".
func ParseSelector(text string) (*Selector, error) {
	s := new(Selector)
	if err := scanSelector(text, s); err != nil {
		return nil, err
	}
	return s, nil
}

// scanSelector is the one selector grammar. It walks text and, when s is
// non-nil, fills s with what it reads; with s nil it only checks the text
// — what Rule.parse runs, so a list refuses the lines ParseSelector would
// and keeps no selector.
func scanSelector(text string, s *Selector) error {
	if text == "" {
		return fmt.Errorf("empty selector")
	}
	if strings.ContainsAny(text, " >+~,") {
		return fmt.Errorf("combinators are not supported: %q", text)
	}
	i := 0
	// Optional leading tag name.
	for i < len(text) && isNameByte(text[i]) {
		i++
	}
	if s != nil {
		s.Tag = strings.ToLower(text[:i])
	}
	hasID := false
	for i < len(text) {
		switch text[i] {
		case '#':
			j := i + 1
			for j < len(text) && isNameByte(text[j]) {
				j++
			}
			if j == i+1 {
				return fmt.Errorf("empty id at %d", i)
			}
			if hasID {
				return fmt.Errorf("multiple ids")
			}
			hasID = true
			if s != nil {
				s.ID = text[i+1 : j]
			}
			i = j
		case '.':
			j := i + 1
			for j < len(text) && isNameByte(text[j]) {
				j++
			}
			if j == i+1 {
				return fmt.Errorf("empty class at %d", i)
			}
			if s != nil {
				s.Classes = append(s.Classes, text[i+1:j])
			}
			i = j
		case '[':
			j := strings.IndexByte(text[i:], ']')
			if j < 0 {
				return fmt.Errorf("unterminated attribute predicate")
			}
			pred, err := parseAttrPred(text[i+1 : i+j])
			if err != nil {
				return err
			}
			if s != nil {
				s.attrs = append(s.attrs, pred)
			}
			i += j + 1
		default:
			return fmt.Errorf("unexpected %q at %d", text[i], i)
		}
	}
	return nil
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_'
}

func parseAttrPred(body string) (attrPred, error) {
	op := attrExists
	name, val := body, ""
	switch {
	case strings.Contains(body, "^="):
		op = attrPrefix
		name, val, _ = strings.Cut(body, "^=")
	case strings.Contains(body, "*="):
		op = attrSubstr
		name, val, _ = strings.Cut(body, "*=")
	case strings.Contains(body, "="):
		op = attrEquals
		name, val, _ = strings.Cut(body, "=")
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return attrPred{}, fmt.Errorf("empty attribute name in %q", body)
	}
	val = strings.Trim(strings.TrimSpace(val), `"'`)
	return attrPred{name: name, op: op, val: val}, nil
}

// Match reports whether the selector matches the element.
func (s *Selector) Match(e *Element) bool {
	if e == nil {
		return false
	}
	if s.Tag != "" && s.Tag != strings.ToLower(e.Tag) {
		return false
	}
	if s.ID != "" && s.ID != e.ID {
		return false
	}
	for _, c := range s.Classes {
		if !e.HasClass(c) {
			return false
		}
	}
	for _, p := range s.attrs {
		v, ok := elemAttr(e, p.name)
		if !ok {
			return false
		}
		switch p.op {
		case attrEquals:
			if v != p.val {
				return false
			}
		case attrPrefix:
			if !strings.HasPrefix(v, p.val) {
				return false
			}
		case attrSubstr:
			if !strings.Contains(v, p.val) {
				return false
			}
		}
	}
	return true
}

// elemAttr resolves an attribute by name, treating id and class as
// attributes too (so [id="x"] works like #x).
func elemAttr(e *Element, name string) (string, bool) {
	switch name {
	case "id":
		return e.ID, e.ID != ""
	case "class":
		return strings.Join(e.Classes, " "), len(e.Classes) > 0
	}
	v, ok := e.Attrs[name]
	return v, ok
}
