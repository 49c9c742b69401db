// Package nfa is a minimal stand-in for dprle/internal/nfa: just the
// surface the cachekey analyzer matches on.
package nfa

type NFA struct{ n int }

func (m *NFA) Marshal() string        { return "" }
func (m *NFA) Dot(name string) string { return "" }
func (m *NFA) String() string         { return "" }
func (m *NFA) Start() int             { return 0 }
func (m *NFA) Final() int             { return 0 }
func (m *NFA) NumStates() int         { return m.n }
func (m *NFA) Key() string            { return "" }
