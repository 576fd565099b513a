package similarity

import "sightrisk/internal/graph"

// JaccardSnapshot is Jaccard over a frozen snapshot.
func JaccardSnapshot(s *graph.Snapshot, a, b graph.UserID) float64 {
	mutual := s.CountMutualFriends(a, b)
	union := s.Degree(a) + s.Degree(b) - mutual
	if union == 0 {
		return 0
	}
	return float64(mutual) / float64(union)
}

// CommonNeighborsSnapshot is CommonNeighbors over a frozen snapshot.
func CommonNeighborsSnapshot(s *graph.Snapshot, a, b graph.UserID) int {
	return s.CountMutualFriends(a, b)
}

// NSSnapshot is NS over a frozen snapshot. It allocates a fresh
// intersection buffer per call; hot loops (NSG construction) should
// use NSInto with a reused buffer instead.
func NSSnapshot(s *graph.Snapshot, o, t graph.UserID) float64 {
	ns, _ := NSInto(s, o, t, nil)
	return ns
}

// NSInto computes NS(o,t) over a frozen snapshot using buf as the
// mutual-friend scratch space, returning the similarity and the
// (possibly grown) buffer for reuse. With a warm buffer the whole
// computation is allocation-free: one sorted-slice intersection plus
// an induced-edge count over the already-sorted intersection.
//
// The arithmetic mirrors NS exactly — same integer counts, same
// operation order — so NSInto(snapshot of g) == NS(g) bit for bit.
func NSInto(s *graph.Snapshot, o, t graph.UserID, buf []graph.UserID) (float64, []graph.UserID) {
	buf = s.AppendMutualFriends(buf[:0], o, t)
	if len(buf) == 0 {
		return 0, buf
	}
	union := s.Degree(o) + s.Degree(t) - len(buf)
	if union == 0 {
		return 0, buf
	}
	j := float64(len(buf)) / float64(union)
	ns := j * (1 + s.DensityOfMutualSorted(buf))
	if ns > 1 {
		ns = 1
	}
	return ns, buf
}
