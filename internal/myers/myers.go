// Package myers implements the Myers O(ND) difference algorithm over
// string sequences. Owl uses it to align kernel-invocation sequences when
// merging traces into evidence (§VII-A): aligned invocations merge their
// A-DCFGs; unaligned ones are kernel-leak candidates.
package myers

// OpKind classifies one alignment step.
type OpKind uint8

// Alignment step kinds.
const (
	Match  OpKind = iota + 1 // a[AIdx] == b[BIdx]
	Delete                   // a[AIdx] has no counterpart in b
	Insert                   // b[BIdx] has no counterpart in a
)

// Op is one step of an alignment script, in order.
type Op struct {
	Kind OpKind
	AIdx int
	BIdx int
}

// Diff computes a shortest edit script between a and b.
func Diff(a, b []string) []Op {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	// v[k+max] = furthest x on diagonal k.
	v := make([]int, 2*max+1)
	var trail [][]int

	var dFound = -1
loop:
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trail = append(trail, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+max] < v[k+1+max]) {
				x = v[k+1+max] // down: insert from b
			} else {
				x = v[k-1+max] + 1 // right: delete from a
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+max] = x
			if x >= n && y >= m {
				dFound = d
				break loop
			}
		}
	}

	// Backtrack.
	var rev []Op
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vPrev := trail[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[k-1+max] < vPrev[k+1+max]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[prevK+max]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			rev = append(rev, Op{Kind: Match, AIdx: x, BIdx: y})
		}
		if d > 0 {
			if prevK == k+1 {
				// came down: insertion of b[prevY]
				y--
				rev = append(rev, Op{Kind: Insert, AIdx: -1, BIdx: y})
			} else {
				// came right: deletion of a[prevX]
				x--
				rev = append(rev, Op{Kind: Delete, AIdx: x, BIdx: -1})
			}
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		rev = append(rev, Op{Kind: Match, AIdx: x, BIdx: y})
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
