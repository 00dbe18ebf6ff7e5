package experiments

// Class fetches a phase's class summary by name.
func (p Fig7Phase) Class(name string) Fig7Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return Fig7Class{}
}
