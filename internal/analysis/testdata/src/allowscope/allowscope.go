// Package allowscope fixtures: //lint:allow attribution is per comment,
// not per comment group. The two allow comments below form ONE comment
// group (a trailing comment directly followed by a line comment), and
// probe2's allow must not reach back up to the mark1 line.
package allowscope

func mark1() {}
func mark2() {}

func shapes() {
	mark1() //lint:allow probe1 first line takes probe1 only
	//lint:allow probe2 second line takes probe2 only
	mark2()
}

func unknown() {
	//lint:allow nosuchcheck typo'd analyzer names must be reported
	mark1()
}

// bareAllow's allow carries no justification, so it suppresses nothing:
// probe1 still reports mark1(), with a hint naming what is missing.
func bareAllow() {
	//lint:allow probe1
	mark1()
}

// justifiedAllow's allow carries one: probe1 is suppressed on mark2().
func justifiedAllow() {
	//lint:allow probe1 fixture: a justified allow suppresses
	mark2()
}
