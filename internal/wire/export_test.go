package wire

import "time"

// SetWindow shortens s's read window, before Serve: tests of the coarse
// deadline cannot wait two minutes for it.
func (s *Server) SetWindow(d time.Duration) { s.window = d }
