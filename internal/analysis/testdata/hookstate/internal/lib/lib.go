// Package lib is a hookstate fixture: a package-level hook variable and
// the library-side writes that must be flagged.
package lib

// Hook is the package-level observer hook.
var Hook func(int)

// Install writes the hook from library code: flagged even in the
// declaring package (the Fig6Explain bug class).
func Install(f func(int)) {
	Hook = f
}

// InstallExcused is the same write with a reasoned suppression.
func InstallExcused(f func(int)) {
	Hook = f //xemem:allow hookstate -- fixture: registration helper invoked only by driver binaries before any world runs
}

// PartHooks is an array-shaped hook table: one observer slot per
// index. Element writes are hook installs.
var PartHooks [4]func(int)

// HookByPart is the map-shaped hook table.
var HookByPart = map[int]func(int){}

// Chain is a slice-shaped hook chain.
var Chain []func(int)

// InstallPart writes one partition's slot from library code: flagged,
// same bug class as the scalar hook.
func InstallPart(p int, f func(int)) {
	PartHooks[p] = f
}

// InstallByPart writes the map-shaped table: flagged.
func InstallByPart(p int, f func(int)) {
	HookByPart[p] = f
}

// InstallChain appends to the hook chain: flagged (the slice itself is
// the package-level hook).
func InstallChain(f func(int)) {
	Chain = append(Chain, f)
}

// Counter is a non-func package variable: writes to it are out of
// scope.
var Counter int

// Bump mutates ordinary package state, which hookstate ignores.
func Bump() { Counter++; Counter = Counter + 1 }
