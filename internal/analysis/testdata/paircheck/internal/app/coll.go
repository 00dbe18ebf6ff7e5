// Registration-cache pairs: the AttachCached/Detach handle and the
// collective communicator's register/unregister binding.
package app

import "fixture/internal/xpmem"

// Communicator mirrors internal/coll's binding-owning surface.
type Communicator struct{ s *xpmem.Session }

// register acquires a registration-cache binding.
func (c *Communicator) register(src int) (int, error) { return src, nil }

// unregister retires a binding.
func (c *Communicator) unregister(b int) error { return nil }

// LeakCachedBlank binds the cached attachment address to the blank
// identifier.
func LeakCachedBlank(s *xpmem.Session) error {
	_, err := s.AttachCached(7)
	return err
}

// PairedCached detaches the cached window: the same retire call as the
// plain forms, so the analyzer must stay silent.
func PairedCached(s *xpmem.Session) error {
	va, err := s.AttachCached(7)
	if err != nil {
		return err
	}
	return s.Detach(va)
}

// LeakBinding only discards the registration binding.
func LeakBinding(c *Communicator) {
	b, _ := c.register(3)
	_ = b
}

// PairedBinding unregisters on teardown — silent.
func PairedBinding(c *Communicator) error {
	b, err := c.register(3)
	if err != nil {
		return err
	}
	return c.unregister(b)
}

// TransfersBinding stores the binding into caller-owned state: the
// owner drives teardown later, so ownership escapes and the analyzer
// must stay silent.
func TransfersBinding(c *Communicator, binds map[int]int) error {
	b, err := c.register(3)
	if err != nil {
		return err
	}
	binds[3] = b
	return nil
}
