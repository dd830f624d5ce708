// Package lib plants one finding of each kind the census reports beside
// methods it must not report.
package lib

// Config has one field the caller sets and one only a test sets.
type Config struct {
	Set      int
	TestOnly int
}

// Used is called by main.
func Used(c Config) int { return c.Set + c.TestOnly }

// Planted is called only from lib_test.go.
func Planted() int { return 1 }

// helper is called only from lib_test.go; its recursion does not count.
func helper(n int) int {
	if n == 0 {
		return 0
	}
	return helper(n - 1)
}

// Shape is used through its Area method only; nothing calls Perimeter.
type Shape interface {
	Area() int
	Perimeter() int
}

// Square's methods are reached through Shape, fmt.Stringer and
// encoding.BinaryMarshaler, never by name.
type Square struct{ Side int }

func (s Square) Area() int                      { return s.Side * s.Side }
func (s Square) Perimeter() int                 { return 4 * s.Side }
func (s Square) String() string                 { return "square" }
func (s Square) MarshalBinary() ([]byte, error) { return []byte{byte(s.Side)}, nil }

type sideError struct{}

func (sideError) Error() string { return "no side" }

// Check returns an error whose Error method only fmt calls.
func Check() error { return sideError{} }
