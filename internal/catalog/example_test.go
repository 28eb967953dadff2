package catalog

import (
	"fmt"
	"log"
)

// ExampleProfile shows the calibrated store profiles.
func ExampleProfile() {
	p := Profiles["anzhi"]
	fmt.Println(p.Name, p.Categories, "categories")
	// Output:
	// anzhi 34 categories
}

// ExampleGenerate builds a deterministic synthetic catalog.
func ExampleGenerate() {
	c, err := Generate(Profiles["slideme"].Scale(0.1), 42)
	if err != nil {
		log.Fatal(err)
	}
	free, paid := freePaidCounts(c)
	fmt.Println("apps:", c.NumApps(), "free:", free, "paid:", paid)
	// Output:
	// apps: 220 free: 152 paid: 68
}
