package cparser

// TypedefsForTest returns the typedef names the parse declared (the kernel
// seed excluded).
func (p *Parser) TypedefsForTest() map[string]bool { return p.typedefs }

// EntriesForTest counts the memo's stored header parses and the spans it
// recorded as ineligible for sharing.
func (m *HeaderMemo) EntriesForTest() (stored, ineligible int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.ineligible {
			ineligible++
		} else {
			stored++
		}
	}
	return stored, ineligible
}
