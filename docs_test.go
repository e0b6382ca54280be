package seatwin_bench

import (
	"os"
	"regexp"
	"testing"
)

// TestDocsNameOnlyExistingArtifacts: every .json or .txt file the
// top-level docs name, as a path from the repository root, exists.
func TestDocsNameOnlyExistingArtifacts(t *testing.T) {
	artifact := regexp.MustCompile(`[A-Za-z0-9_./-]+\.(?:json|txt)\b`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range artifact.FindAllString(string(text), -1) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, name)
			}
		}
	}
}
