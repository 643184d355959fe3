// Package u exercises the unused analyzer.
package u

import "strings"

// Exported is out of scope, and what it calls is used.
func Exported() int { return helper() + value(3) + gen[int](1) }

func helper() int { return 1 }

// value is used only as an expression, not called directly.
var fns = []func(int) int{value}

func value(x int) int { return x }

func gen[T any](x T) int { return 1 }

func unusedFunc() {} // want `function unusedFunc is unused`

// recursive calls only itself.
func recursive(n int) int { // want `function recursive is unused`
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

func init() {}

func _() {}

// asm has its body in assembly.
func asm(x int) int

type T struct{ n int }

func (t *T) Exported() { t.called() }

func (t *T) called() {}

func (t *T) unusedMethod() {} // want `method unusedMethod is unused`

// viaIface is reached only through the interface below.
func (t *T) viaIface() string { return "" }

type stringer interface{ viaIface() string }

var _ = func(s stringer) string { return strings.ToUpper(s.viaIface()) }

// Generic receivers: the use is of the instantiated method.
type G[E any] struct{ e E }

func (g G[E]) get() E { return g.e }

var _ = G[int]{}.get()

func suppressed() {} //xk:allow(unused): kept for the fixture
