package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// loaded 43800 sales covering 2020
	//
	// as of              rows     fact bytes    savings
	// 2020-12           38758        1395288      11.5%
	// 2021-06            5752         207072      86.9%
	// 2022-06            5752         207072      86.9%
	// 2024-06              32           1152      99.9%
	// 2026-06              32           1152      99.9%
	//
	// revenue by year and city (after full aging):
	// fact_0: 2020, city-0, T | Quantity=32349 Amount=1.6336795e+06
	// fact_1: 2020, city-1, T | Quantity=32395 Amount=1.624736e+06
	// fact_2: 2020, city-2, T | Quantity=32975 Amount=1.658335e+06
	// fact_3: 2020, city-3, T | Quantity=32823 Amount=1.6544945e+06
	//
	// total quantity=130542 revenue=6571245.00 — identical to the loaded totals
}
