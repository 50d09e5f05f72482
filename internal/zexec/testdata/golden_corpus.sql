SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'ATL' AND Month = '06' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'ATL' AND Month = '12' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'JFK' AND Month = '06' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'JFK' AND Month = '12' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'LAX' AND Month = '06' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'LAX' AND Month = '12' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'ORD' AND Month = '06' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'ORD' AND Month = '12' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'SFO' AND Month = '06' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'SFO' AND Month = '12' GROUP BY Day ORDER BY Day
SELECT Day, AVG(ArrDelay) AS a0, airport FROM airline WHERE airport IN ('JFK', 'SFO', 'ORD', 'LAX', 'ATL') AND Month = '06' GROUP BY airport, Day ORDER BY airport, Day
SELECT Day, AVG(ArrDelay) AS a0, airport FROM airline WHERE airport IN ('JFK', 'SFO', 'ORD', 'LAX', 'ATL') AND Month = '12' GROUP BY airport, Day ORDER BY airport, Day
SELECT Month, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'ATL' GROUP BY Month ORDER BY Month
SELECT Month, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'JFK' GROUP BY Month ORDER BY Month
SELECT Month, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'LAX' GROUP BY Month ORDER BY Month
SELECT Month, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'ORD' GROUP BY Month ORDER BY Month
SELECT Month, AVG(ArrDelay) AS a0 FROM airline WHERE airport = 'SFO' GROUP BY Month ORDER BY Month
SELECT Month, AVG(ArrDelay) AS a0, AVG(WeatherDelay) AS a1, airport FROM airline WHERE airport IN ('JFK', 'SFO', 'ORD', 'LAX', 'ATL') GROUP BY airport, Month ORDER BY airport, Month
SELECT Month, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'ATL' GROUP BY Month ORDER BY Month
SELECT Month, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'JFK' GROUP BY Month ORDER BY Month
SELECT Month, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'LAX' GROUP BY Month ORDER BY Month
SELECT Month, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'ORD' GROUP BY Month ORDER BY Month
SELECT Month, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'SFO' GROUP BY Month ORDER BY Month
SELECT location, AVG(profit) AS a0 FROM sales WHERE product = 'chair' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(profit) AS a0 FROM sales WHERE product = 'chair' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(profit) AS a0 FROM sales WHERE product = 'desk' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(profit) AS a0 FROM sales WHERE product = 'desk' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(profit) AS a0 FROM sales WHERE product = 'stapler' GROUP BY location ORDER BY location
SELECT location, AVG(profit) AS a0 FROM sales WHERE product = 'table' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(profit) AS a0 FROM sales WHERE product = 'table' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(profit) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'table') AND year = 2010 GROUP BY product, location ORDER BY product, location
SELECT location, AVG(profit) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'table') AND year = 2015 GROUP BY product, location ORDER BY product, location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'chair' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'chair' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'desk' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'desk' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'lamp' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'lamp' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'printer' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'printer' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'stapler' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'stapler' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'stapler' GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'table' AND year = 2010 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0 FROM sales WHERE product = 'table' AND year = 2015 GROUP BY location ORDER BY location
SELECT location, AVG(sales) AS a0, AVG(profit) AS a1, product FROM sales WHERE product IN ('stapler') GROUP BY product, location ORDER BY product, location
SELECT location, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'lamp', 'printer', 'stapler', 'table') AND year = 2010 GROUP BY product, location ORDER BY product, location
SELECT location, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'lamp', 'printer', 'stapler', 'table') AND year = 2015 GROUP BY product, location ORDER BY product, location
SELECT month, AVG(profit) AS a0 FROM sales GROUP BY month ORDER BY month
SELECT month, AVG(sales) AS a0 FROM sales GROUP BY month ORDER BY month
SELECT month, AVG(sales) AS a0, AVG(profit) AS a1 FROM sales GROUP BY month ORDER BY month
SELECT time, AVG(profit) AS a0 FROM sales WHERE product = 'stapler' GROUP BY time ORDER BY time
SELECT time, AVG(profit) AS a0, AVG(sales) AS a1, product FROM sales WHERE product IN ('stapler') GROUP BY product, time ORDER BY product, time
SELECT time, AVG(sales) AS a0 FROM sales WHERE product = 'stapler' GROUP BY time ORDER BY time
SELECT time, AVG(sales) AS a0, AVG(profit) AS a1, product FROM sales WHERE product IN ('stapler') GROUP BY product, time ORDER BY product, time
SELECT year, AVG(DepDelay) AS a0 FROM airline WHERE airport = 'ATL' GROUP BY year ORDER BY year
SELECT year, AVG(DepDelay) AS a0 FROM airline WHERE airport = 'JFK' GROUP BY year ORDER BY year
SELECT year, AVG(DepDelay) AS a0 FROM airline WHERE airport = 'LAX' GROUP BY year ORDER BY year
SELECT year, AVG(DepDelay) AS a0 FROM airline WHERE airport = 'ORD' GROUP BY year ORDER BY year
SELECT year, AVG(DepDelay) AS a0 FROM airline WHERE airport = 'SFO' GROUP BY year ORDER BY year
SELECT year, AVG(DepDelay) AS a0, AVG(WeatherDelay) AS a1, airport FROM airline WHERE airport IN ('JFK', 'SFO') GROUP BY airport, year ORDER BY airport, year
SELECT year, AVG(DepDelay) AS a0, airport FROM airline WHERE airport IN ('JFK', 'SFO', 'ORD', 'LAX', 'ATL') GROUP BY airport, year ORDER BY airport, year
SELECT year, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'ATL' GROUP BY year ORDER BY year
SELECT year, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'JFK' GROUP BY year ORDER BY year
SELECT year, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'LAX' GROUP BY year ORDER BY year
SELECT year, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'ORD' GROUP BY year ORDER BY year
SELECT year, AVG(WeatherDelay) AS a0 FROM airline WHERE airport = 'SFO' GROUP BY year ORDER BY year
SELECT year, AVG(WeatherDelay) AS a0, airport FROM airline WHERE airport IN ('JFK', 'SFO', 'ORD', 'LAX', 'ATL') GROUP BY airport, year ORDER BY airport, year
SELECT year, AVG(profit) AS a0 FROM sales GROUP BY year ORDER BY year
SELECT year, AVG(profit) AS a0 FROM sales WHERE product = 'chair' GROUP BY year ORDER BY year
SELECT year, AVG(profit) AS a0 FROM sales WHERE product = 'desk' GROUP BY year ORDER BY year
SELECT year, AVG(profit) AS a0, product FROM sales WHERE product IN ('chair', 'desk') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0 FROM sales GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'chair' AND location = 'UK' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'chair' AND location = 'US' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'chair' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'desk' AND location = 'UK' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'desk' AND location = 'US' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'desk' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'lamp' AND location = 'UK' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'lamp' AND location = 'US' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'lamp' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'printer' AND location = 'UK' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'printer' AND location = 'US' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'printer' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'stapler' AND location = 'UK' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'stapler' AND location = 'US' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'stapler' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'table' AND location = 'UK' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'table' AND location = 'US' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0 FROM sales WHERE product = 'table' GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0, AVG(profit) AS a1 FROM sales GROUP BY year ORDER BY year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'lamp', 'printer', 'stapler', 'table') AND location = 'UK' GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'lamp', 'printer', 'stapler', 'table') AND location = 'US' GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'lamp', 'printer', 'stapler', 'table') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'lamp', 'printer', 'table') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'printer') AND location = 'UK' GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'desk', 'stapler') AND location = 'US' GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('chair', 'printer', 'stapler') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('printer') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('printer', 'chair', 'desk') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('stapler') GROUP BY product, year ORDER BY product, year
SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('stapler', 'chair', 'desk') GROUP BY product, year ORDER BY product, year
