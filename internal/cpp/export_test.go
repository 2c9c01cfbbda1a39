package cpp

import "testing"

// CheckMemoFiles exposes checkMemo to the external tests: files are
// (name, source) pairs.
func CheckMemoFiles(t testing.TB, opts Options, files [][2]string) int {
	runs := make([]memoRun, len(files))
	for i, f := range files {
		runs[i] = memoRun{f[0], f[1]}
	}
	return checkMemo(t, opts, runs)
}
