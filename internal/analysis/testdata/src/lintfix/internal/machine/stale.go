package machine

// Suppressions must not outlive the code they excused: an allow that
// suppresses nothing is itself a finding, line- or function-scoped.

// StaleLine carries a line-scoped allow that suppresses nothing.
func StaleLine() int {
	//tdnuca:allow(wallclock) fixture: nothing on the next line reads the clock
	// want-above directive/stale
	return placeholder
}

// StaleFunc carries a function-scoped allow that suppresses nothing.
//
//tdnuca:allow(alloc) fixture: exempted for no reason at all
func StaleFunc() {} // want-above directive/stale
