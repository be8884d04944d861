//go:build !amd64

package cpu

// Host is Generic: the assembly routines exist only for amd64.
const Host = Generic
