package coll

// ScratchNeed reports how many scratch bytes rank's led-group arenas
// occupy — the minimum capacity its Member.Scratch window must have.
func (c *Communicator) ScratchNeed(rank int) uint64 { return c.need[rank] }
