package server

// Test-only accessors for the external server_test package.

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.adm.isDraining() }

// Sessions returns the number of live sessions.
func (s *Server) Sessions() int { return s.store.len() }

// CacheLen returns the partition cache's current entry count.
func (s *Server) CacheLen() int { return s.cache.len() }

// len returns the current entry count.
func (c *partitionCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
