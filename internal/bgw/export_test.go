package bgw

// PartyStorage returns the share elements the actor engine's parties
// hold (capacity of every share buffer they own), after a barrier so
// the parties are idle.
func PartyStorage(e *ActorEngine) int {
	e.collectOps()
	n := 0
	for _, pa := range e.parties {
		n += cap(pa.sc) + cap(pa.arena) + cap(pa.highs) + cap(pa.dec) + cap(pa.opened) + cap(pa.mine)
		for _, v := range pa.vc {
			n += cap(v)
		}
	}
	return n
}
