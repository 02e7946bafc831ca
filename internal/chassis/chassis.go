// Package chassis is what adwars-serve and adwars-gateway stand on besides
// the serving loop (internal/wire), each piece defined once: counters that
// render themselves, the latency histogram, the gateway's circuit breaker,
// and the HTTP conventions of both handler trees — the error envelope,
// /debug/vars, the capped body read and the X-Adwars-* reply header names.
// Standard library only; nothing here is registered anywhere: a metrics
// tree is a struct its owner holds.
package chassis

import (
	"encoding/json"
	"io"
	"strconv"
	"sync/atomic"
)

// Counter is an atomic counter that marshals as its value, so a metrics tree
// is one struct of JSON-tagged Counters and a new counter is one field. Trees
// are marshalled through a pointer: MarshalJSON is found only on addressable
// fields, and a tree's atomics must not be copied.
type Counter struct{ atomic.Uint64 }

func (c *Counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendUint(nil, c.Load(), 10), nil
}

// JSON renders a metrics tree for expvar and /debug/vars.
func JSON(tree any) string {
	data, err := json.Marshal(tree)
	if err != nil {
		return "{}"
	}
	return string(data)
}

// Flush writes tree, indented, to w (nil discards): a drained process's totals.
func Flush(w io.Writer, tree any) {
	if w == nil {
		return
	}
	data, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}
