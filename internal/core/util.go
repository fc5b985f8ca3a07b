package core

// isIdentityOrder reports whether the permutation maps every index to
// itself (a strictly increasing permutation is necessarily the identity).
func isIdentityOrder(order []int) bool {
	for i, v := range order {
		if v != i {
			return false
		}
	}
	return true
}
