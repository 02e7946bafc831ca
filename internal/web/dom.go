// Package web models the synthetic websites the measurement pipeline
// crawls: a small DOM, page-level subresource requests, scripts, and an
// HTML serialization with a tolerant parser so that archived page content
// can be stored as real HTML text and re-opened by the browser substrate —
// the same shape as the paper's crawl, which stores HTML files and HAR
// logs and replays them against filter lists.
package web

import (
	"sort"
	"strings"

	"adwars/internal/abp"
)

// Element is one DOM element. Children form the document tree.
type Element struct {
	// Tag is the lower-case tag name.
	Tag string
	// ID is the id attribute ("" when absent).
	ID string
	// Classes are the class attribute tokens.
	Classes []string
	// Attrs holds other attributes (lower-case names). May be nil.
	Attrs map[string]string
	// Style holds inline CSS properties (lower-case names). May be nil.
	Style map[string]string
	// Text is the element's direct text content.
	Text string
	// Children are nested elements in document order.
	Children []*Element
}

// SetAttr sets an attribute, allocating the map on first use.
func (e *Element) SetAttr(name, value string) {
	if e.Attrs == nil {
		e.Attrs = make(map[string]string)
	}
	e.Attrs[strings.ToLower(name)] = value
}

// SetStyle sets an inline CSS property.
func (e *Element) SetStyle(prop, value string) {
	if e.Style == nil {
		e.Style = make(map[string]string)
	}
	e.Style[strings.ToLower(prop)] = value
}

// Append adds children and returns the element for chaining.
func (e *Element) Append(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// Flatten returns the element and all descendants in document order.
func (e *Element) Flatten() []*Element {
	out := []*Element{e}
	for _, c := range e.Children {
		out = append(out, c.Flatten()...)
	}
	return out
}

// ToABP adapts the element to the filter engine's element view.
func (e *Element) ToABP() *abp.Element {
	attrs := make(map[string]string, len(e.Attrs)+1)
	for k, v := range e.Attrs {
		attrs[k] = v
	}
	if len(e.Style) > 0 {
		attrs["style"] = e.styleString()
	}
	return &abp.Element{
		Tag:     e.Tag,
		ID:      e.ID,
		Classes: append([]string(nil), e.Classes...),
		Attrs:   attrs,
	}
}

func (e *Element) styleString() string {
	props := make([]string, 0, len(e.Style))
	for k := range e.Style {
		props = append(props, k)
	}
	sort.Strings(props)
	var b strings.Builder
	for i, k := range props {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte(':')
		b.WriteString(e.Style[k])
	}
	return b.String()
}

// NewElement builds an element with optional id and classes.
func NewElement(tag, id string, classes ...string) *Element {
	return &Element{Tag: strings.ToLower(tag), ID: id, Classes: classes}
}
