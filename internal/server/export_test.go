package server

// Test-only accessors for the external server_test package.

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.adm.isDraining() }

// Sessions returns the number of live sessions.
func (s *Server) Sessions() int { return s.store.len() }

// CacheLen returns the number of done entries the result memo keeps.
func (s *Server) CacheLen() int { return s.memo.len() }

// len returns the number of done entries.
func (c *resultMemo) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
