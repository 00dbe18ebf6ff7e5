package analysis

// Names reports the analyzer names in suite order (the vocabulary the
// //xemem:allow directive accepts).
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}
