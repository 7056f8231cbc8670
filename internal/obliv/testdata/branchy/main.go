// Command branchy is the negative control of TestCompiledKernelsBranchFree:
// a compare-exchange that branches on the comparison outcome, the shape the
// block kernels must never compile to. The check must flag its conditional
// jump.
package main

type elem struct{ Key, Val, Aux uint64 }

//go:noinline
func cexBranchy(x, y *elem) {
	if x.Key > y.Key {
		*x, *y = *y, *x
	}
}

func main() {
	x, y := elem{Key: 2}, elem{Key: 1}
	cexBranchy(&x, &y)
	println(x.Key, y.Key)
}
