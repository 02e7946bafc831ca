package web

import (
	"adwars/internal/abp"
)

// Script is one JavaScript resource of a page: external (URL set, Source
// holds the fetched body) or inline (URL empty).
type Script struct {
	// URL is the script's source URL, or "" for inline scripts.
	URL string
	// Source is the JavaScript text.
	Source string
	// AntiAdblock marks ground truth: whether this script implements
	// adblock detection. The label generator of §5 never reads it — only
	// evaluation does.
	AntiAdblock bool
}

// Page is a website's homepage as the crawler sees it at one point in time.
type Page struct {
	// Domain is the registrable domain serving the page.
	Domain string
	// Title is the page title.
	Title string
	// Root is the document tree (the <html> element).
	Root *Element
	// Requests are all subresource requests issued during load, in order,
	// as an adblocker sees them. AddRequest is their only writer.
	Requests []abp.Request
	// Scripts are the page's JavaScript resources.
	Scripts []Script
}

// URL returns the page's canonical homepage URL.
func (p *Page) URL() string { return "http://" + p.Domain + "/" }

// AddRequest records a subresource request issued by this page.
func (p *Page) AddRequest(url string, typ abp.RequestType) {
	p.Requests = append(p.Requests, abp.Request{URL: url, Type: typ, PageDomain: p.Domain})
}

// Elements returns the flattened document tree.
func (p *Page) Elements() []*Element {
	if p.Root == nil {
		return nil
	}
	return p.Root.Flatten()
}

// NewPage builds an empty page skeleton (html > head + body).
func NewPage(domain, title string) *Page {
	head := NewElement("head", "")
	body := NewElement("body", "")
	root := NewElement("html", "").Append(head, body)
	return &Page{Domain: domain, Title: title, Root: root}
}

// Head returns the page's <head> element (nil if the tree was replaced).
func (p *Page) Head() *Element { return p.findTag("head") }

// Body returns the page's <body> element (nil if the tree was replaced).
func (p *Page) Body() *Element { return p.findTag("body") }

func (p *Page) findTag(tag string) *Element {
	if p.Root == nil {
		return nil
	}
	for _, e := range p.Root.Flatten() {
		if e.Tag == tag {
			return e
		}
	}
	return nil
}
